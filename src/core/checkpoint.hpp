// Versioned binary snapshots of a staged campaign — the checkpoint/resume
// machinery of run_fixed_vs_random.
//
// A snapshot freezes the campaign at a stage boundary: which table batches
// are finalized (their exact ProbeSetResults), how many stages of the
// in-progress batch have run (the chunk cursor), and the master count tables
// of that batch. No RNG state is stored — the counter-mode PRG addresses
// every draw by absolute run, so the cursor alone determines every
// remaining draw. Because stages partition the fixed chunk grid and every
// accumulator is an integer count table, a resumed campaign ends with the
// same counts as an uninterrupted one, for any thread count. A set-major
// campaign's snapshot holds no tables at all: it resumes by re-simulating
// its prefix into the trace, which the counter PRG makes bit-identical.
//
// Cross-layout contract: the fingerprint deliberately excludes the thread
// count and the SIMD lane width — both are bit-identity-irrelevant by
// construction. The snapshot stores only fully-materialized master
// accumulators: hosted sets (finalized as integer marginals of a hosting
// set by the accumulation plan) are materialized at every stage boundary
// before saving, so a snapshot does not depend on the plan layout (which
// shards with the thread count) and resumes under any other
// (tests/checkpoint_test.cpp, Checkpoint.ResumeAcrossThreadCounts).
//
// On-disk format (version 4), inside the envelope every snapshot shares
// (common/serialize.hpp: 8-byte magic, version word, length-prefixed
// payload, FNV-1a checksum of the payload, written via a temp file and a
// rename so a crash mid-save never corrupts a previous good snapshot). The
// payload holds the cursor and the totals, the finished results, and then
// every table dense: its key bits, one count-width byte w in {1, 2, 4, 8}
// (the narrowest width that holds its largest count), and all 2 << key_bits
// counts little-endian at w bytes each. The bytes are a pure function of
// the snapshot. A save builds the payload in one buffer; a load reads the
// file in one read and decodes it in place from a bounds-checked cursor.
// load_checkpoint throws common::Error on any truncation, checksum
// mismatch, unsupported version, or malformed field — corrupted snapshots
// are rejected, never interpreted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/campaign.hpp"
#include "src/stats/gtest_stat.hpp"

namespace sca::eval {

/// Everything needed to continue a staged campaign from a stage boundary.
struct CampaignSnapshot {
  /// FNV-1a fingerprint of the campaign configuration (seed, budget, chunk
  /// grid, stage schedule, batch ranges, probe-set names, ...). Resume
  /// refuses a snapshot whose fingerprint does not match the options —
  /// thread count and lane width are deliberately excluded, since both are
  /// bit-identical by contract and resuming across them is sound.
  std::uint64_t fingerprint = 0;
  std::uint64_t num_chunks = 0;
  std::uint64_t batches_total = 0;
  std::uint64_t batch_index = 0;  ///< batches fully finalized so far
  std::uint64_t stages_done = 0;  ///< stages finished in the current batch
  std::uint64_t streak = 0;       ///< consecutive over-margin stages so far
  bool early_stopped = false;
  bool complete = false;  ///< campaign finished; resume returns immediately
  // Cumulative counters, so a resumed result reports whole-campaign totals.
  std::uint64_t total_cycles = 0;
  std::uint64_t simulations_done = 0;
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Exact results of the finalized batches, in evaluation order.
  std::vector<ProbeSetResult> finished;
  /// Master count tables of the in-progress batch, one per probe set:
  /// observation counts for the G-test, the two groups' Hamming-weight
  /// histograms for the t-test (empty when stages_done is 0, the
  /// snapshot is a batch boundary, or the campaign runs set-major).
  std::vector<stats::FlatCountTable> sets;
};

/// Atomically writes `snapshot` to `path` (temp file + rename).
void save_checkpoint(const std::string& path, const CampaignSnapshot& snapshot);

/// Loads a snapshot; throws common::Error if the file is missing, truncated,
/// checksum-corrupt, or structurally malformed.
CampaignSnapshot load_checkpoint(const std::string& path);

}  // namespace sca::eval
