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
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/campaign.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/bus.hpp"
#include "src/netlist/ir.hpp"
#include "tests/test_util.hpp"

namespace sca::eval {
namespace {

using gadgets::RandomnessPlan;
using netlist::Netlist;
using testutil::kronecker_netlist;

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

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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
  EXPECT_FALSE(whole.set_major);
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

// An order-2 glitch+transition campaign over the top gate of the 21-bit
// Kronecker. A 1 MiB table budget holds its packed trace (12288 samples of
// at most two words) but not its tables, so it runs set-major. With early
// stopping, a threshold of 1 makes the second stage stop the campaign.
CampaignOptions kron2_options(unsigned threads, bool early_stop) {
  CampaignOptions opts = staged_options(6144, 3, threads);
  opts.model = ProbeModel::kGlitchTransition;
  opts.order = 2;
  opts.probe_scope_filter = "kron.G7";
  opts.table_memory_budget = 1024 * 1024;
  if (early_stop) {
    opts.threshold = 1.0;
    opts.early_stop_stages = 2;
  }
  return opts;
}

TEST(Checkpoint, SetMajorResumesAtAnyThreadCount) {
  // A set-major snapshot holds the cursor and the totals but no tables,
  // and its fingerprint carries no thread-dependent batch grid: written
  // at 1 thread and killed at every stage boundary, it resumes at 4 and
  // at 8 threads to the uninterrupted verdict, byte for byte, with and
  // without early stopping.
  const Netlist nl =
      kronecker_netlist(RandomnessPlan::kron2_full_fresh(), /*share_count=*/3);
  for (const bool early_stop : {false, true}) {
    const CampaignResult whole =
        run_fixed_vs_random(nl, kron2_options(1, early_stop));
    ASSERT_TRUE(whole.set_major);
    EXPECT_EQ(whole.early_stopped, early_stop);
    const std::string expected = verdict_json(whole);
    for (unsigned kill_after = 1; kill_after < whole.stages_total;
         ++kill_after) {
      const std::string tag = std::string(early_stop ? "es" : "full") +
                              std::to_string(kill_after);
      CampaignOptions opts = kron2_options(1, early_stop);
      opts.checkpoint_path = ckpt_path("setmajor_" + tag);
      opts.stop_after_stage = kill_after;
      const CampaignResult partial = run_fixed_vs_random(nl, opts);
      if (!partial.interrupted) {
        // Early stopping ended the campaign before the kill.
        EXPECT_TRUE(early_stop) << tag;
        EXPECT_EQ(verdict_json(partial), expected) << tag;
        std::remove(opts.checkpoint_path.c_str());
        continue;
      }
      for (const unsigned threads : {4u, 8u}) {
        CampaignOptions resume = kron2_options(threads, early_stop);
        resume.checkpoint_path = ckpt_path(
            "setmajor_" + tag + "_t" + std::to_string(threads));
        std::filesystem::copy_file(opts.checkpoint_path,
                                   resume.checkpoint_path);
        resume.resume = true;
        const CampaignResult resumed = run_fixed_vs_random(nl, resume);
        EXPECT_TRUE(resumed.resumed) << tag;
        EXPECT_TRUE(resumed.set_major) << tag;
        EXPECT_FALSE(resumed.interrupted) << tag;
        EXPECT_EQ(verdict_json(resumed), expected)
            << tag << " resumed at " << threads << " threads";
        std::remove(resume.checkpoint_path.c_str());
      }
      std::remove(opts.checkpoint_path.c_str());
    }
  }
}

TEST(Checkpoint, DriverFlipRejectsSnapshot) {
  // At 64 KiB the campaign's trace (at least 96 KiB) does not fit, so it
  // runs sample-major in many table batches; at 1 MiB it runs set-major.
  // The driver is part of the fingerprint, so neither driver resumes the
  // other's snapshot.
  const Netlist nl =
      kronecker_netlist(RandomnessPlan::kron2_full_fresh(), /*share_count=*/3);
  const auto expect_rejected = [&](const CampaignOptions& resume) {
    try {
      (void)run_fixed_vs_random(nl, resume);
      ADD_FAILURE() << "a snapshot of the other driver was accepted";
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find("does not match"),
                std::string::npos)
          << e.what();
    }
  };
  CampaignOptions sample_major = kron2_options(2, false);
  sample_major.table_memory_budget = 64 * 1024;
  sample_major.checkpoint_path = ckpt_path("flip_sample_major");
  sample_major.stop_after_stage = 1;
  const CampaignResult partial = run_fixed_vs_random(nl, sample_major);
  ASSERT_FALSE(partial.set_major);
  ASSERT_TRUE(partial.interrupted);
  CampaignOptions resume = kron2_options(2, false);
  resume.checkpoint_path = sample_major.checkpoint_path;
  resume.resume = true;
  expect_rejected(resume);
  std::remove(sample_major.checkpoint_path.c_str());

  CampaignOptions set_major = kron2_options(2, false);
  set_major.checkpoint_path = ckpt_path("flip_set_major");
  set_major.stop_after_stage = 1;
  ASSERT_TRUE(run_fixed_vs_random(nl, set_major).set_major);
  resume = kron2_options(2, false);
  resume.table_memory_budget = 64 * 1024;
  resume.checkpoint_path = set_major.checkpoint_path;
  resume.resume = true;
  expect_rejected(resume);
  std::remove(set_major.checkpoint_path.c_str());
}

TEST(Checkpoint, CorruptedSnapshotsAreRejected) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_pair_reuse());
  CampaignOptions opts = staged_options(12000, 3, 1);
  opts.checkpoint_path = ckpt_path("corrupt");
  opts.stop_after_stage = 1;
  (void)run_fixed_vs_random(nl, opts);

  const auto write_file = [&](const std::string& bytes) {
    write_bytes(opts.checkpoint_path, bytes);
  };
  const std::string good = read_bytes(opts.checkpoint_path);
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

  // Version-2 (Welford moments) and version-3 (sparse count triples)
  // snapshots are refused by their version word, which follows the 8-byte
  // magic (little-endian u64).
  for (const char version : {2, 3}) {
    std::string old_version = good;
    old_version[8] = version;
    for (std::size_t i = 9; i < 16; ++i) old_version[i] = 0;
    write_file(old_version);
    try {
      run_fixed_vs_random(nl, resume);
      ADD_FAILURE() << "version-" << int{version} << " snapshot was accepted";
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"),
                std::string::npos)
          << e.what();
    }
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

// --- the v4 snapshot format -------------------------------------------------

std::string payload_of(const std::string& file) {
  return file.substr(common::kSnapshotHeaderBytes,
                     file.size() - common::kSnapshotHeaderBytes -
                         common::kSnapshotTrailerBytes);
}

// `payload` in the envelope of `file` (same magic and version) with a valid
// length and checksum, so only the payload decoder can reject it.
std::string rewrap(const std::string& file, const std::string& payload) {
  std::string out = file.substr(0, 16);
  common::put_u64(out, payload.size());
  out += payload;
  common::put_u64(
      out, common::Fnv1a().feed_bytes(payload.data(), payload.size()).value());
  return out;
}

// A real mid-batch snapshot: the tiny table budget splits the campaign into
// batches of 3 stages, so stopping after stage 4 leaves one finished batch
// (results) and one batch in progress (tables).
std::string batched_snapshot(const std::string& tag) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = staged_options(12000, 3, 2);
  opts.table_memory_budget = 4 * 1024;
  opts.checkpoint_path = ckpt_path(tag);
  opts.stop_after_stage = 4;
  (void)run_fixed_vs_random(nl, opts);
  return opts.checkpoint_path;
}

TEST(Checkpoint, SaveLoadSaveIsByteIdentical) {
  const std::string path = batched_snapshot("reload");
  const CampaignSnapshot first = load_checkpoint(path);
  ASSERT_FALSE(first.finished.empty());
  ASSERT_FALSE(first.sets.empty());
  const std::string copy = path + ".copy";
  save_checkpoint(copy, first);
  EXPECT_EQ(read_bytes(copy), read_bytes(path));
  const CampaignSnapshot second = load_checkpoint(copy);
  EXPECT_EQ(second.sets, first.sets);
  EXPECT_EQ(second.stages_done, first.stages_done);
  EXPECT_EQ(second.batch_index, first.batch_index);
  ASSERT_EQ(second.finished.size(), first.finished.size());
  for (std::size_t i = 0; i < first.finished.size(); ++i) {
    EXPECT_EQ(second.finished[i].name, first.finished[i].name);
    EXPECT_EQ(second.finished[i].representatives,
              first.finished[i].representatives);
    EXPECT_EQ(second.finished[i].g.g, first.finished[i].g.g);
  }
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(Checkpoint, CountWidthEdgesRoundTrip) {
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  const std::vector<std::pair<std::uint64_t, unsigned>> edges = {
      {0, 1},      {255, 1},       {256, 2},   {65'535, 2},
      {65'536, 4}, {two32 - 1, 4}, {two32, 8}, {~std::uint64_t{0}, 8}};
  const std::string path = ckpt_path("widths");
  for (const auto& [count, width] : edges) {
    CampaignSnapshot snap;
    snap.sets.emplace_back(2);
    snap.sets.back().add(3, 1, count);
    snap.sets.back().add(0, 0, 1);
    EXPECT_EQ(snap.sets.back().count_width(), width) << count;
    save_checkpoint(path, snap);
    // The table is the payload's last record: key bits, width, 8 counts.
    const std::string payload = payload_of(read_bytes(path));
    ASSERT_GE(payload.size(), 2 + 8 * width);
    EXPECT_EQ(static_cast<unsigned>(payload[payload.size() - 8 * width - 1]),
              width)
        << count;
    const CampaignSnapshot back = load_checkpoint(path);
    ASSERT_EQ(back.sets.size(), 1u);
    EXPECT_EQ(back.sets[0], snap.sets[0]) << count;
    EXPECT_EQ(back.sets[0].counts_for(3)[1], count);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, DecoderRejectsMalformedTables) {
  CampaignSnapshot snap;
  snap.sets.emplace_back(3);
  snap.sets.back().add(5, 0, 300);  // count width 2
  const std::string path = ckpt_path("malformed");
  save_checkpoint(path, snap);
  const std::string file = read_bytes(path);
  const std::string payload = payload_of(file);
  const std::size_t table = payload.size() - (2 + 16 * 2);
  ASSERT_EQ(payload[table], 3);
  ASSERT_EQ(payload[table + 1], 2);

  // The re-wrapped, unmodified payload loads: the envelope is valid.
  write_bytes(path, rewrap(file, payload));
  EXPECT_EQ(load_checkpoint(path).sets, snap.sets);

  const auto expect_rejected = [&](const std::string& bad,
                                   const std::string& reason) {
    write_bytes(path, rewrap(file, bad));
    try {
      (void)load_checkpoint(path);
      ADD_FAILURE() << "accepted a table with: " << reason;
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  };
  std::string bad = payload;
  bad[table + 1] = 3;
  expect_rejected(bad, "count width invalid");
  bad = payload;
  bad[table + 1] = 4;
  expect_rejected(bad, "runs past the payload end");
  bad = payload;
  bad[table] = static_cast<char>(stats::FlatCountTable::kMaxKeyBits + 1);
  expect_rejected(bad, "key space too large");
  bad = payload;
  bad[table] = 4;
  expect_rejected(bad, "runs past the payload end");
  expect_rejected(payload.substr(0, payload.size() - 1),
                  "runs past the payload end");
  std::remove(path.c_str());
}

// Offsets of the payload's length fields, walking the v4 layout of `snap`:
// the finished count, each result's name length and representative count
// and the set count (u64 words), and each table's key-bits and width bytes.
struct LengthFields {
  std::vector<std::size_t> words;
  std::vector<std::size_t> bytes;
};

LengthFields length_fields(const CampaignSnapshot& snap) {
  LengthFields f;
  std::size_t at = 90;  // cursor, flags, totals and timings
  f.words.push_back(at);
  at += 8;
  for (const ProbeSetResult& r : snap.finished) {
    f.words.push_back(at);
    at += 8 + r.name.size();
    f.words.push_back(at);
    at += 8 + 8 * r.representatives.size() + 106;
  }
  f.words.push_back(at);
  at += 8;
  for (const stats::FlatCountTable& t : snap.sets) {
    f.bytes.push_back(at);
    f.bytes.push_back(at + 1);
    at += t.encoded_size();
  }
  f.words.push_back(at);  // end of payload, for the walk check below
  return f;
}

TEST(Checkpoint, SeededMutationsThrowOrLoadCleanly) {
  const std::string path = batched_snapshot("mutants");
  const std::string file = read_bytes(path);
  const std::string payload = payload_of(file);
  LengthFields fields = length_fields(load_checkpoint(path));
  ASSERT_EQ(fields.words.back(), payload.size()) << "layout walk is off";
  fields.words.pop_back();

  constexpr std::uint64_t kEdits[] = {
      0, 1, 2, 255, 256, 65'536, std::uint64_t{1} << 24,
      std::uint64_t{1} << 32, std::uint64_t{1} << 40, ~std::uint64_t{0} >> 1,
      ~std::uint64_t{0}};
  common::Xoshiro256 rng(0x5eed);
  constexpr int kMutants = 2400;
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = payload;
    switch (i % 3) {
      case 0:  // one to four flipped bytes anywhere
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
          mutant[rng.below(mutant.size())] ^=
              static_cast<char>(1 + rng.below(255));
        break;
      case 1:  // truncation
        mutant.resize(rng.below(mutant.size()));
        break;
      default:  // a length field set to an edge value
        if (rng.bit()) {
          const std::size_t at = fields.words[rng.below(fields.words.size())];
          const std::uint64_t v = kEdits[rng.below(std::size(kEdits))];
          for (int b = 0; b < 8; ++b)
            mutant[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
        } else {
          mutant[fields.bytes[rng.below(fields.bytes.size())]] =
              static_cast<char>(rng.byte());
        }
    }
    write_bytes(path, rewrap(file, mutant));
    try {
      (void)load_checkpoint(path);
      ++loaded;
    } catch (const common::Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, kMutants);
  EXPECT_GE(rejected, kMutants / 3);  // every truncation at least
  std::remove(path.c_str());
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
