// Checkpoint/resume and staged-evaluation property tests.
//
// The contract under test: a staged campaign is bit-identical to an
// unstaged one; a campaign killed at ANY stage boundary and resumed from
// its snapshot produces bit-identical final statistics to the uninterrupted
// run, for any thread count; corrupted or
// mismatched snapshots are rejected with a clear error, never interpreted;
// early stopping cuts leaky campaigns short and leaves secure ones alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/core/campaign.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/netlist/ir.hpp"

namespace sca::eval {
namespace {

using gadgets::Bus;
using gadgets::RandomnessPlan;
using netlist::InputRole;
using netlist::Netlist;

Netlist kronecker_netlist(const RandomnessPlan& plan) {
  Netlist nl;
  std::vector<Bus> shares;
  for (std::size_t i = 0; i < 2; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, InputRole::kShare, "b" + std::to_string(i) + "_", 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

CampaignOptions staged_options(std::size_t sims, unsigned stages,
                               unsigned threads) {
  CampaignOptions opts;
  opts.model = ProbeModel::kGlitch;
  opts.simulations = sims;
  opts.stages = stages;
  opts.threads = threads;
  opts.fixed_values[0] = 0x00;
  return opts;
}

std::string ckpt_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "sca_ckpt_" + tag + ".bin";
  std::remove(path.c_str());
  return path;
}

// Bit-identical result comparison: same probe sets in the same order with
// the same raw statistics (doubles compared exactly — the whole point).
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.leaking_sets, b.leaking_sets);
  EXPECT_EQ(a.max_minus_log10_p, b.max_minus_log10_p);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const ProbeSetResult& ra = a.results[i];
    const ProbeSetResult& rb = b.results[i];
    EXPECT_EQ(ra.name, rb.name) << i;
    EXPECT_EQ(ra.minus_log10_p, rb.minus_log10_p) << ra.name;
    EXPECT_EQ(ra.g.g, rb.g.g) << ra.name;
    EXPECT_EQ(ra.g.bins, rb.g.bins) << ra.name;
    EXPECT_EQ(ra.g.n_fixed, rb.g.n_fixed) << ra.name;
    EXPECT_EQ(ra.g.n_random, rb.g.n_random) << ra.name;
    EXPECT_EQ(ra.t.t, rb.t.t) << ra.name;
    EXPECT_EQ(ra.leaking, rb.leaking) << ra.name;
  }
}

TEST(Staged, StagedEqualsUnstaged) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  const CampaignResult whole =
      run_fixed_vs_random(nl, staged_options(15000, 1, 2));
  const CampaignResult staged =
      run_fixed_vs_random(nl, staged_options(15000, 5, 2));
  EXPECT_GE(staged.stages_total, 2u);
  EXPECT_EQ(staged.stages_completed, staged.stages_total);
  expect_identical(whole, staged);
}

TEST(Staged, ExplicitScheduleMatchesUniformStages) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(15000, 1, 1);
  opts.stage_schedule = {0.2, 0.5, 1.0};
  const CampaignResult scheduled = run_fixed_vs_random(nl, opts);
  const CampaignResult whole =
      run_fixed_vs_random(nl, staged_options(15000, 1, 1));
  expect_identical(whole, scheduled);
}

TEST(Staged, StageReportsProgressMonotonically) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(15000, 4, 1);
  std::vector<StageReport> reports;
  opts.on_stage = [&](const StageReport& r) { reports.push_back(r); };
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  ASSERT_EQ(reports.size(), result.stages_total);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].stage, i + 1);
    EXPECT_EQ(reports[i].stages_total, result.stages_total);
    if (i) {
      EXPECT_GT(reports[i].simulations_done, reports[i - 1].simulations_done);
      EXPECT_GE(reports[i].max_minus_log10_p,
                reports[i - 1].max_minus_log10_p - 1e-9);
    }
  }
  // The final stage report carries the exact finalized statistics.
  EXPECT_EQ(reports.back().simulations_done, result.simulations_per_group);
  EXPECT_EQ(reports.back().max_minus_log10_p, result.max_minus_log10_p);
  EXPECT_EQ(reports.back().leaking_sets, result.leaking_sets);
}

// The central property: kill at every stage boundary, resume, and the final
// statistics are bit-for-bit those of the uninterrupted run — across thread
// counts.
TEST(Checkpoint, ResumeAtEveryStageBoundaryMatchesUninterrupted) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  constexpr std::size_t kSims = 12000;
  constexpr unsigned kStages = 4;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const CampaignResult whole =
        run_fixed_vs_random(nl, staged_options(kSims, kStages, threads));
    EXPECT_FALSE(whole.interrupted);
    for (unsigned kill_after = 1; kill_after < kStages; ++kill_after) {
      const std::string tag =
          std::to_string(threads) + "_" + std::to_string(kill_after);
      CampaignOptions opts = staged_options(kSims, kStages, threads);
      opts.checkpoint_path = ckpt_path(tag);
      opts.stop_after_stage = kill_after;
      const CampaignResult partial = run_fixed_vs_random(nl, opts);
      EXPECT_TRUE(partial.interrupted) << tag;
      EXPECT_LT(partial.simulations_done, whole.simulations_done) << tag;

      CampaignOptions resume = staged_options(kSims, kStages, threads);
      resume.checkpoint_path = opts.checkpoint_path;
      resume.resume = true;
      const CampaignResult resumed = run_fixed_vs_random(nl, resume);
      EXPECT_TRUE(resumed.resumed) << tag;
      EXPECT_FALSE(resumed.interrupted) << tag;
      EXPECT_EQ(resumed.simulations_done, whole.simulations_done) << tag;
      expect_identical(whole, resumed);
      std::remove(opts.checkpoint_path.c_str());
    }
  }
}

TEST(Checkpoint, ResumeAcrossThreadCounts) {
  // Thread count is excluded from the snapshot fingerprint on purpose:
  // the campaign is bit-identical across thread counts, so interrupting at
  // 1 thread and resuming at 8 (or vice versa) must still reproduce the
  // uninterrupted statistics. The plan layout changes with the thread
  // count (8 threads shard the probe sets), so this is also the resume
  // across plan layouts.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  const CampaignResult whole =
      run_fixed_vs_random(nl, staged_options(12000, 3, 1));
  CampaignOptions opts = staged_options(12000, 3, 1);
  opts.checkpoint_path = ckpt_path("xthreads");
  opts.stop_after_stage = 1;
  (void)run_fixed_vs_random(nl, opts);
  CampaignOptions resume = staged_options(12000, 3, 8);
  resume.checkpoint_path = opts.checkpoint_path;
  resume.resume = true;
  const CampaignResult resumed = run_fixed_vs_random(nl, resume);
  EXPECT_TRUE(resumed.resumed);
  expect_identical(whole, resumed);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(Checkpoint, ResumeUnderTableBatching) {
  // Stages x batches: a tiny table budget forces several simulation passes;
  // the cursor must land on (batch, stage) exactly.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  auto make = [&] {
    CampaignOptions opts = staged_options(12000, 3, 2);
    opts.table_memory_budget = 4 * 1024;  // forces many batches
    return opts;
  };
  const CampaignResult whole = run_fixed_vs_random(nl, make());
  EXPECT_GT(whole.table_batches, 1u);
  for (unsigned kill_after : {1u, 2u, 4u, 5u}) {
    CampaignOptions opts = make();
    opts.checkpoint_path = ckpt_path("batch" + std::to_string(kill_after));
    opts.stop_after_stage = kill_after;
    const CampaignResult partial = run_fixed_vs_random(nl, opts);
    EXPECT_TRUE(partial.interrupted);
    CampaignOptions resume = make();
    resume.checkpoint_path = opts.checkpoint_path;
    resume.resume = true;
    const CampaignResult resumed = run_fixed_vs_random(nl, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.table_batches, whole.table_batches);
    expect_identical(whole, resumed);
    std::remove(opts.checkpoint_path.c_str());
  }
}

TEST(Checkpoint, ResumeWelchTTest) {
  // The t-test path checkpoints integer Hamming-weight histograms, so the
  // t statistic after resume is the same fold of the same counts.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  auto make = [&](unsigned threads) {
    CampaignOptions opts = staged_options(12000, 3, threads);
    opts.statistic = Statistic::kWelchTTest;
    return opts;
  };
  for (const unsigned threads : {1u, 8u}) {
    const CampaignResult whole = run_fixed_vs_random(nl, make(threads));
    CampaignOptions opts = make(threads);
    opts.checkpoint_path = ckpt_path("ttest" + std::to_string(threads));
    opts.stop_after_stage = 2;
    (void)run_fixed_vs_random(nl, opts);
    CampaignOptions resume = make(threads);
    resume.checkpoint_path = opts.checkpoint_path;
    resume.resume = true;
    const CampaignResult resumed = run_fixed_vs_random(nl, resume);
    EXPECT_TRUE(resumed.resumed);
    expect_identical(whole, resumed);
    std::remove(opts.checkpoint_path.c_str());
  }

  // Written at 1 thread, resumed at 8: the verdict is byte-identical.
  CampaignOptions opts = make(1);
  opts.checkpoint_path = ckpt_path("ttest_cross");
  opts.stop_after_stage = 2;
  (void)run_fixed_vs_random(nl, opts);
  CampaignOptions resume = make(8);
  resume.checkpoint_path = opts.checkpoint_path;
  resume.resume = true;
  const CampaignResult resumed = run_fixed_vs_random(nl, resume);
  EXPECT_TRUE(resumed.resumed);
  const CampaignResult whole = run_fixed_vs_random(nl, make(1));
  EXPECT_EQ(verdict_json(resumed), verdict_json(whole));
  std::remove(opts.checkpoint_path.c_str());
}

TEST(Checkpoint, CompletedSnapshotShortCircuitsRerun) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(12000, 3, 2);
  opts.checkpoint_path = ckpt_path("complete");
  const CampaignResult whole = run_fixed_vs_random(nl, opts);
  CampaignOptions resume = opts;
  resume.resume = true;
  const CampaignResult rerun = run_fixed_vs_random(nl, resume);
  EXPECT_TRUE(rerun.resumed);
  // No additional simulation happened: the cumulative counter stands.
  EXPECT_EQ(rerun.simulations_done, whole.simulations_done);
  expect_identical(whole, rerun);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(Checkpoint, MissingSnapshotStartsFresh) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(12000, 2, 1);
  opts.checkpoint_path = ckpt_path("missing");
  opts.resume = true;  // nothing on disk yet
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.stages_completed, result.stages_total);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(Checkpoint, CorruptedSnapshotsAreRejected) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(12000, 3, 1);
  opts.checkpoint_path = ckpt_path("corrupt");
  opts.stop_after_stage = 1;
  (void)run_fixed_vs_random(nl, opts);

  const auto read_file = [&] {
    std::ifstream is(opts.checkpoint_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const auto write_file = [&](const std::string& bytes) {
    std::ofstream os(opts.checkpoint_path,
                     std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = read_file();
  ASSERT_GT(good.size(), 64u);

  CampaignOptions resume = staged_options(12000, 3, 1);
  resume.checkpoint_path = opts.checkpoint_path;
  resume.resume = true;

  // Truncated mid-payload.
  write_file(good.substr(0, good.size() / 2));
  EXPECT_THROW(run_fixed_vs_random(nl, resume), common::Error);

  // Single flipped payload byte: checksum mismatch.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x01;
  write_file(flipped);
  EXPECT_THROW(run_fixed_vs_random(nl, resume), common::Error);

  // Not a snapshot at all.
  write_file("definitely not a checkpoint");
  EXPECT_THROW(run_fixed_vs_random(nl, resume), common::Error);

  // A version-2 snapshot (the pre-count-table format) is refused by its
  // version word, which follows the 8-byte magic (little-endian u64).
  std::string old_version = good;
  old_version[8] = 2;
  for (std::size_t i = 9; i < 16; ++i) old_version[i] = 0;
  write_file(old_version);
  try {
    run_fixed_vs_random(nl, resume);
    ADD_FAILURE() << "version-2 snapshot was accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"),
              std::string::npos)
        << e.what();
  }

  // Well-formed, matching snapshot whose stage cursor says no stage of the
  // batch ran, yet which carries tables: a resume would allocate the batch's
  // tables on top of them.
  write_file(good);
  CampaignSnapshot stage0 = load_checkpoint(opts.checkpoint_path);
  ASSERT_FALSE(stage0.sets.empty());
  stage0.stages_done = 0;
  save_checkpoint(opts.checkpoint_path, stage0);
  try {
    run_fixed_vs_random(nl, resume);
    ADD_FAILURE() << "stage-0 snapshot with tables was accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("accumulator count mismatch"),
              std::string::npos)
        << e.what();
  }

  // Valid snapshot, wrong campaign (different seed -> fingerprint).
  write_file(good);
  CampaignOptions wrong = resume;
  wrong.seed = 99;
  EXPECT_THROW(run_fixed_vs_random(nl, wrong), common::Error);

  std::remove(opts.checkpoint_path.c_str());
}

TEST(EarlyStop, LeakyCampaignStopsBeforeHalfBudget) {
  // A gross leak (pair reuse) crosses threshold + margin within the first
  // stages; with K = 2 consecutive confirmations the campaign must stop
  // before half the budget — the E2 acceptance criterion, in miniature.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(40000, 10, 2);
  opts.early_stop_stages = 2;
  opts.early_stop_margin = 3.0;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_FALSE(result.pass);
  EXPECT_LT(result.stages_completed, result.stages_total);
  EXPECT_LT(result.simulations_done, result.simulations_per_group / 2);
}

TEST(EarlyStop, SecureCampaignRunsToCompletion) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_proposed_eq9());
  CampaignOptions opts = staged_options(15000, 10, 2);
  opts.early_stop_stages = 2;
  opts.early_stop_margin = 3.0;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(result.early_stopped);
  EXPECT_TRUE(result.pass);
  EXPECT_EQ(result.stages_completed, result.stages_total);
  EXPECT_EQ(result.simulations_done, result.simulations_per_group);
}

TEST(EarlyStop, StoppedCampaignStillMatchesLeakNames) {
  // Early stopping trades budget for the same verdict: the leaking sets it
  // reports (from partial counts) are the gross leaks the full run finds.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  const CampaignResult full =
      run_fixed_vs_random(nl, staged_options(40000, 1, 2));
  CampaignOptions opts = staged_options(40000, 10, 2);
  opts.early_stop_stages = 2;
  opts.early_stop_margin = 3.0;
  const CampaignResult stopped = run_fixed_vs_random(nl, opts);
  ASSERT_TRUE(stopped.early_stopped);
  // Nearly-tied sets may swap ranks between the partial and full budgets,
  // so compare against the full run's leak list, not its single top name.
  std::vector<std::string> full_leaks;
  for (const ProbeSetResult& r : full.results)
    if (r.leaking) full_leaks.push_back(r.name);
  EXPECT_NE(std::find(full_leaks.begin(), full_leaks.end(),
                      stopped.results.front().name),
            full_leaks.end())
      << "early-stop worst set " << stopped.results.front().name
      << " is not a gross leak of the full run";
}

// --- second-order family search: sharded checkpoint/resume ----------------

SecondOrderSearchOptions family_window(std::size_t candidates,
                                       unsigned threads) {
  SecondOrderSearchOptions opts;
  opts.model = ProbeModel::kGlitch;
  opts.begin = kron2_family13_naive_index();
  opts.end = opts.begin + candidates;
  opts.chunk = 2;
  opts.threads = threads;
  // The whole window is statically lint-rejected (the naive plan's G5/G6
  // reuse leaks regardless of the G7 wiring), so these sweeps never pay for
  // sampling; campaign determinism across thread counts has its own suite
  // above and in eval_test.
  opts.simulations = 500;
  return opts;
}

void expect_identical(const SecondOrderSearchResult& a,
                      const SecondOrderSearchResult& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.lint_rejected, b.lint_rejected);
  EXPECT_EQ(a.expensive_evaluations, b.expensive_evaluations);
  ASSERT_EQ(a.evaluations.size(), b.evaluations.size());
  for (std::size_t i = 0; i < a.evaluations.size(); ++i) {
    EXPECT_EQ(a.evaluations[i].index, b.evaluations[i].index) << i;
    EXPECT_EQ(a.evaluations[i].lint_rejected, b.evaluations[i].lint_rejected);
    EXPECT_EQ(a.evaluations[i].secure, b.evaluations[i].secure);
    EXPECT_EQ(a.evaluations[i].severity, b.evaluations[i].severity);
    EXPECT_EQ(a.evaluations[i].worst_probe, b.evaluations[i].worst_probe);
  }
}

TEST(SecondOrderSearch, ResumeIsBitIdenticalAcrossThreadCounts) {
  const SecondOrderSearchResult whole =
      search_kron2_family13(family_window(4, 1));
  ASSERT_TRUE(whole.complete);
  EXPECT_EQ(whole.chunks_total, 2u);

  for (const unsigned threads : {1u, 4u}) {
    SecondOrderSearchOptions opts = family_window(4, threads);
    opts.checkpoint_path =
        ckpt_path("family13_t" + std::to_string(threads));
    opts.stop_after_chunks = 1;
    const SecondOrderSearchResult part = search_kron2_family13(opts);
    EXPECT_FALSE(part.complete);
    EXPECT_EQ(part.chunks_done, 1u);
    EXPECT_EQ(part.evaluations.size(), 2u);

    opts.stop_after_chunks = 0;
    opts.resume = true;
    const SecondOrderSearchResult resumed = search_kron2_family13(opts);
    ASSERT_TRUE(resumed.complete);
    expect_identical(whole, resumed);
    std::remove(opts.checkpoint_path.c_str());
  }
}

TEST(SecondOrderSearch, FingerprintRejectsConfigurationFlips) {
  SecondOrderSearchOptions opts = family_window(4, 2);
  opts.checkpoint_path = ckpt_path("family13_fp");
  opts.stop_after_chunks = 1;
  ASSERT_FALSE(search_kron2_family13(opts).complete);

  // Resuming with the lint pre-filter toggled off would silently change
  // what the remaining chunks compute — the fingerprint must refuse.
  SecondOrderSearchOptions flipped = opts;
  flipped.resume = true;
  flipped.stop_after_chunks = 0;
  flipped.lint_prefilter = false;
  EXPECT_THROW(search_kron2_family13(flipped), common::Error);

  // Same for a different budget, window, or chunk grid.
  SecondOrderSearchOptions other_budget = opts;
  other_budget.resume = true;
  other_budget.simulations = 501;
  EXPECT_THROW(search_kron2_family13(other_budget), common::Error);
  SecondOrderSearchOptions other_grid = opts;
  other_grid.resume = true;
  other_grid.chunk = 4;
  EXPECT_THROW(search_kron2_family13(other_grid), common::Error);

  // The unflipped configuration still resumes fine afterwards.
  SecondOrderSearchOptions good = opts;
  good.resume = true;
  good.stop_after_chunks = 0;
  EXPECT_TRUE(search_kron2_family13(good).complete);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(SecondOrderSearch, RejectsBadWindows) {
  SecondOrderSearchOptions opts;
  opts.begin = 5;
  opts.end = 5;
  EXPECT_THROW(search_kron2_family13(opts), common::Error);
  opts.end = kron2_family13_size() + 1;
  EXPECT_THROW(search_kron2_family13(opts), common::Error);
  opts.begin = 0;
  opts.end = 1;
  opts.chunk = 0;
  EXPECT_THROW(search_kron2_family13(opts), common::Error);
}

}  // namespace
}  // namespace sca::eval
