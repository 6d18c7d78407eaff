// PROLEAD-style fixed-vs-random leakage evaluation campaign.
//
// Two groups of bit-parallel simulations are run: the *fixed* group feeds
// the same unmasked secrets every cycle, the *random* group feeds fresh
// uniform secrets; both groups re-share the secrets and redraw every fresh
// mask each cycle. For every (deduplicated, extended) probe set, the
// distribution of its observation is accumulated per group and compared
// with a G-test; leakage is declared when -log10(p) exceeds the threshold
// (7.0, matching PROLEAD). This is the tool flow the paper runs against the
// masked Sbox with 4 million simulations.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/probes.hpp"
#include "src/gadgets/bus.hpp"
#include "src/netlist/ir.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/stats/ttest.hpp"

namespace sca::eval {

/// Which statistic decides leakage.
enum class Statistic {
  kGTest,       ///< PROLEAD's contingency G-test on full observations
  kWelchTTest,  ///< TVLA Welch t-test on observation Hamming weights
                ///< (first order only; threshold |t| > 4.5)
};

/// Progress snapshot emitted after every completed evaluation stage (see
/// CampaignOptions::stages). All statistics are cumulative over the stages
/// completed so far; on the final stage of a batch they equal the exact
/// finalized batch results.
struct StageReport {
  std::size_t stage = 0;         ///< 1-based index of the just-completed stage
  std::size_t stages_total = 0;
  std::size_t batch = 0;         ///< 1-based table batch being evaluated
  std::size_t batches_total = 0;
  /// Per-group observations accumulated so far in this batch's pass.
  std::size_t simulations_done = 0;
  std::size_t simulations_total = 0;  ///< per-group budget of a full pass
  /// Worst severity so far across finalized batches and the current batch's
  /// interim statistics (-log10(p) for the G-test, |t| for the t-test).
  double max_minus_log10_p = 0.0;
  std::string worst_set;         ///< name of the worst probe set so far
  std::size_t leaking_sets = 0;  ///< sets over threshold so far
  bool pass_so_far = true;
  double stage_seconds = 0.0;    ///< wall time of this stage's simulation
  double sims_per_second = 0.0;  ///< both groups, this stage, wall-clock
  /// Cumulative per-phase CPU seconds (same meaning as in CampaignResult).
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Accumulation sub-phases (subset of accumulate_seconds, G-test only):
  /// observation-row gathering, bit-matrix transposes, and histogram/table
  /// updates.
  double extract_seconds = 0.0;
  double transpose_seconds = 0.0;
  double histogram_seconds = 0.0;
  /// Probe sets answered by alias fan-out instead of their own
  /// accumulators (identical observation sets — see
  /// CampaignResult::aliased_probe_sets).
  std::size_t aliased_probe_sets = 0;
  bool early_stopped = false;    ///< this stage triggered early stopping
  std::string checkpoint_path;   ///< non-empty if a snapshot was just saved
};

struct CampaignOptions {
  ProbeModel model = ProbeModel::kGlitch;
  unsigned order = 1;
  Statistic statistic = Statistic::kGTest;

  /// Observations collected per group (the paper's "number of simulations").
  std::size_t simulations = 200'000;

  std::uint64_t seed = 1;

  /// Worker threads for the sharded simulation (0 = the SCA_THREADS
  /// environment variable, else hardware concurrency). The campaign is
  /// bit-identical for every thread count: the run budget is split into
  /// fixed chunks, every fresh-randomness draw is a pure function of
  /// (seed, cycle, slot) through the counter-mode PRG, and every
  /// accumulator is an integer count table whose merge is a commutative
  /// add.
  unsigned threads = 0;

  /// Simulation lane width: 64, 256, 512, or 0 = auto (the SCA_LANES
  /// environment variable, else the widest words the CPU runs well —
  /// 512 with AVX-512, 256 otherwise). The counter-mode PRG addresses
  /// randomness by absolute 64-lane run, so every lane width produces
  /// bit-identical statistics; the checkpoint fingerprint excludes it
  /// and a campaign may resume under a different width.
  unsigned lanes = 0;

  /// Leakage threshold on -log10(p), PROLEAD's default.
  double threshold = 7.0;

  /// Cycles to run before the first sample (>= pipeline depth).
  std::size_t warmup_cycles = 8;

  /// Cycles between samples within one run; must exceed the pipeline depth
  /// so consecutive samples are statistically independent.
  std::size_t sample_interval = 8;

  /// Sample points taken per 64-lane run before resetting.
  std::size_t samples_per_run = 32;

  /// Observations wider than this are compacted to Hamming weights per cycle
  /// (PROLEAD's compact mode) to keep contingency tables meaningful. Values
  /// above FlatCountTable::kMaxDirectBits (16) act as 16, so every exact
  /// set's key space fits a materialized count table.
  std::size_t max_observation_bits = 16;

  /// Fixed unmasked value per secret group for the fixed group of the test.
  /// Groups not listed default to 0x00.
  std::map<std::uint32_t, std::uint8_t> fixed_values;

  /// Random-byte buses that must be drawn from GF(256)* (the B2M masks).
  std::vector<gadgets::Bus> nonzero_random_buses;

  /// Optional hierarchical-name prefix restricting probe placement.
  std::string probe_scope_filter;

  /// Hard cap on evaluated probe sets (0 = unlimited); sets beyond the cap
  /// are dropped and reported, never silently.
  std::size_t max_probe_sets = 0;

  /// Approximate memory budget for count tables. Large order-2 campaigns
  /// are split into probe-set batches, re-running the (cheap, seeded)
  /// simulation once per batch to stay under the budget. A batch's tables
  /// exist only while it runs: the budget covers one batch's master tables
  /// plus every worker's own tables, so the per-batch share shrinks as the
  /// thread count grows.
  std::size_t table_memory_budget = std::size_t{4096} * 1024 * 1024;

  // --- staged evaluation --------------------------------------------------

  /// Number of evaluation stages the run budget is split into (0 = the
  /// SCA_STAGES environment variable, else 1 = the classic all-or-nothing
  /// run). Stages partition the fixed chunk grid, so a staged campaign is
  /// bit-identical to an unstaged one: stage s covers chunks
  /// [round(s/S * chunks), round((s+1)/S * chunks)) and the master
  /// accumulators after the last stage are the same integer counts either
  /// way.
  unsigned stages = 0;

  /// Explicit stage schedule as cumulative budget fractions in (0, 1],
  /// ascending, last == 1 (e.g. {0.1, 0.3, 1.0}). Overrides `stages`.
  std::vector<double> stage_schedule;

  /// Early stopping: abort once the worst severity has exceeded
  /// threshold + early_stop_margin for this many *consecutive* stages
  /// (0 disables). The current batch is finalized from its partial counts;
  /// later batches are skipped and counted in unevaluated_sets.
  unsigned early_stop_stages = 0;
  double early_stop_margin = 0.0;

  /// Path of the campaign snapshot. When non-empty, a versioned binary
  /// checkpoint (master accumulators + cursor) is written atomically after
  /// every stage; with `resume`, a matching snapshot at this path is loaded
  /// and the campaign continues from its cursor, producing bit-identical
  /// final statistics to an uninterrupted run for any thread count.
  std::string checkpoint_path;

  /// Resume from `checkpoint_path` if a snapshot exists there (a missing
  /// file starts fresh; a corrupt or mismatched one throws common::Error).
  bool resume = false;

  /// Testing hook simulating a kill: stop after this many stages have run
  /// *in this process* (0 = run to completion). The checkpoint stays on
  /// disk and the partial result has `interrupted` set.
  unsigned stop_after_stage = 0;

  /// Called after every completed stage (in addition to checkpointing).
  std::function<void(const StageReport&)> on_stage;

  /// Null-calibration mode: the "fixed" group also draws fresh uniform
  /// secrets, making the null hypothesis true by construction. Any verdict
  /// above threshold is then a false positive of the statistic itself.
  bool null_calibration = false;
};

struct ProbeSetResult {
  std::string name;           ///< probe names joined with " & "
  std::vector<netlist::SignalId> representatives;
  std::size_t observation_bits = 0;
  bool compacted = false;     ///< Hamming-weight compaction applied
  stats::GTestResult g;       ///< valid when statistic == kGTest
  stats::TTestResult t;       ///< valid when statistic == kWelchTTest
  /// Severity on the campaign's scale: -log10(p) for the G-test, |t| for
  /// the t-test (compare against 7.0 resp. 4.5).
  double severity = 0.0;
  double minus_log10_p = 0.0;  ///< == severity for the G-test (convenience)
  bool leaking = false;
  /// Names of probe positions / probe sets whose observation set is
  /// identical to this one's — they were never accumulated separately, and
  /// this verdict applies to each of them verbatim (the dedup fan-out).
  std::vector<std::string> aliases;
};

struct CampaignResult {
  bool pass = true;
  Statistic statistic = Statistic::kGTest;
  /// Worst severity over all sets (-log10(p) or |t| depending on statistic).
  double max_minus_log10_p = 0.0;
  std::size_t leaking_sets = 0;
  std::size_t total_sets = 0;
  std::size_t dropped_sets = 0;  ///< sets beyond max_probe_sets
  std::size_t simulations_per_group = 0;
  unsigned threads_used = 1;     ///< resolved worker-thread count
  unsigned lanes_used = 64;      ///< resolved simulation lane width
  /// Simulated clock cycles over all runs, groups, and table batches, in
  /// 64-lane-run units regardless of lane width (wide words retire
  /// lanes/64 of these per settle() pass); gate evaluations =
  /// total_cycles x combinational gates x 64 lanes. Feeds the perf
  /// trajectory.
  std::size_t total_cycles = 0;
  std::size_t table_batches = 0;  ///< simulation passes under the memory budget
  /// Per-phase CPU time summed over all workers and batches: simulation
  /// (input feeding, settle, snapshot), statistics accumulation, and the
  /// merge (workers' tables into the master, hosted-set marginals). On one
  /// thread these add up to ~wall time; with N workers they can exceed it
  /// (they are CPU seconds, not wall seconds).
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Accumulation sub-phases of the G-test pipeline (subset of
  /// accumulate_seconds): gathering observation rows into transpose blocks,
  /// the 64x64 bit-matrix transposes, and histogram/table updates (trie
  /// expansion popcounts, packed-key extraction, HW histograms). The t-test
  /// vertical-counter path reports zeros here.
  double extract_seconds = 0.0;
  double transpose_seconds = 0.0;
  double histogram_seconds = 0.0;
  /// Alias names recorded across all probe sets: probe positions folded at
  /// universe build (identical glitch cones) plus probe sets folded at
  /// enumeration (identical union observations). Each rode along on a
  /// canonical set's accumulators instead of being evaluated redundantly.
  std::size_t aliased_probe_sets = 0;
  /// Probe sets finalized as exact integer marginals of a hosting superset
  /// (no per-sample accumulation at all), summed over executed batches.
  std::size_t hosted_sets = 0;
  /// Probe-set shards of the 2-D (chunk x shard) schedule (max over
  /// batches; 1 = classic chunk-only scheduling).
  std::size_t set_shards = 1;
  ProbeModel model = ProbeModel::kGlitch;
  unsigned order = 1;
  /// Staged-evaluation bookkeeping. stages_completed counts stages finished
  /// across the whole campaign including any resumed-from snapshot; on an
  /// uninterrupted single-batch run it equals stages_total.
  std::size_t stages_total = 1;
  std::size_t stages_completed = 0;
  bool early_stopped = false;  ///< early stopping cut the budget short
  bool interrupted = false;    ///< stop_after_stage fired; snapshot on disk
  bool resumed = false;        ///< continued from a checkpoint
  /// Per-group observations actually simulated, summed over every pass and
  /// batch (equals simulations_per_group x table_batches when uninterrupted).
  std::size_t simulations_done = 0;
  /// Sets never evaluated because early stopping skipped their batches.
  std::size_t unevaluated_sets = 0;
  /// All probe-set results, sorted by -log10(p) descending.
  std::vector<ProbeSetResult> results;

  /// The top `n` results (most leaking first).
  std::vector<const ProbeSetResult*> top(std::size_t n) const;
};

/// Runs the campaign. The netlist must have at least one secret group with
/// a complete set of share inputs.
CampaignResult run_fixed_vs_random(const netlist::Netlist& nl,
                                   const CampaignOptions& options);

}  // namespace sca::eval
