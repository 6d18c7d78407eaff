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
// same counts as an uninterrupted one, for any thread count.
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
// On-disk format: an 8-byte magic, a version word, a length-prefixed
// payload, and an FNV-1a checksum of the payload; writes go through a
// temp file + rename so a crash mid-save never corrupts a previous good
// snapshot. load_checkpoint throws common::Error on any truncation,
// checksum mismatch, or malformed field — corrupted snapshots are rejected,
// never interpreted.
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
  /// histograms for the t-test (empty when stages_done is 0 or the
  /// snapshot is a batch boundary).
  std::vector<stats::FlatCountTable> sets;
};

/// Atomically writes `snapshot` to `path` (temp file + rename).
void save_checkpoint(const std::string& path, const CampaignSnapshot& snapshot);

/// Loads a snapshot; throws common::Error if the file is missing, truncated,
/// checksum-corrupt, or structurally malformed.
CampaignSnapshot load_checkpoint(const std::string& path);

}  // namespace sca::eval
