// Compiled accumulation-plan property tests.
//
// Two layers of contract. The planner itself (src/core/accplan) is a pure
// function of the batch's set descriptors: hosting must pick a minimal
// strict superset with an exact pext key mask, trie CSE must never emit
// more expansion work than the unshared per-set total, packed gather
// recipes must reproduce each set's key bit-for-bit, and the shard
// partition must cover every live set exactly once. On top of that, the
// campaign built on the plan must be bit-identical to the scalar reference
// campaign (tests/reference_campaign.hpp) for every regime the planner can
// select — narrow, packed, compacted, hosted and t-test — at every lane
// width and thread count, including the 2-D (chunk x probe-set shard)
// schedule.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/accplan.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/netlist/ir.hpp"
#include "tests/reference_campaign.hpp"
#include "tests/test_util.hpp"

namespace sca {
namespace {

namespace ap = eval::accplan;

using gadgets::RandomnessPlan;
using netlist::Netlist;
using testutil::kronecker_netlist;

// --- planner unit tests ------------------------------------------------------

ap::PlanSetInput set_input(const std::vector<std::size_t>& points,
                           bool transitions = false, bool compacted = false) {
  ap::PlanSetInput in;
  in.points = &points;
  in.observation_bits = points.size() * (transitions ? 2 : 1);
  in.compacted = compacted;
  return in;
}

TEST(AccPlan, HostingPicksMinimalWidthStrictSuperset) {
  const std::vector<std::size_t> wide = {0, 1, 2, 3, 5};
  const std::vector<std::size_t> tight = {1, 3, 5};
  const std::vector<std::size_t> sub = {1, 3};
  const std::vector<ap::PlanSetInput> sets = {
      set_input(wide), set_input(tight), set_input(sub)};
  const ap::AccumulationPlan plan =
      ap::compile_accumulation_plan(sets, ap::PlanOptions{});

  // `sub` has two strict supersets; the width-3 one must win.
  EXPECT_EQ(plan.sets[2].regime, ap::AccRegime::kHosted);
  EXPECT_EQ(plan.sets[2].host, 1u);
  // Positions of points 1 and 3 inside {1, 3, 5} are bits 0 and 1.
  EXPECT_EQ(plan.sets[2].host_mask, 0b011u);
  // `tight` is itself hosted by `wide` (positions 1, 3, 4).
  EXPECT_EQ(plan.sets[1].regime, ap::AccRegime::kHosted);
  EXPECT_EQ(plan.sets[1].host, 0u);
  EXPECT_EQ(plan.sets[1].host_mask, 0b11010u);
  EXPECT_EQ(plan.hosted_sets, 2u);
  EXPECT_EQ(plan.live_sets, 1u);
  // The chain materializes wide-first: `tight` before `sub`.
  ASSERT_EQ(plan.finalize_order.size(), 2u);
  EXPECT_EQ(plan.finalize_order[0], 1u);
  EXPECT_EQ(plan.finalize_order[1], 2u);
}

TEST(AccPlan, HostMaskMirrorsPreviousHalfUnderTransitions) {
  const std::vector<std::size_t> super = {0, 1, 2};
  const std::vector<std::size_t> sub = {0, 2};
  const std::vector<ap::PlanSetInput> sets = {set_input(super, true),
                                              set_input(sub, true)};
  ap::PlanOptions opts;
  opts.transitions = true;
  const ap::AccumulationPlan plan = ap::compile_accumulation_plan(sets, opts);
  ASSERT_EQ(plan.sets[1].regime, ap::AccRegime::kHosted);
  // Now half selects host bits {0, 2}; the prev half mirrors them three
  // (= host point count) positions higher.
  EXPECT_EQ(plan.sets[1].host_mask, 0b101101u);
}

TEST(AccPlan, TrieSharesCommonExpansionPrefixes) {
  // Three width-3 narrow sets sharing the prefix row 0 (none a subset of
  // another, so hosting stays out of the way). A non-shared trie would
  // expand (2^3 - 1) masks per set; the shared one reuses the row-0 and
  // row-{0,1} levels.
  const std::vector<std::size_t> a = {0, 1, 2};
  const std::vector<std::size_t> b = {0, 1, 3};
  const std::vector<std::size_t> c = {0, 2, 3};
  const std::vector<ap::PlanSetInput> sets = {set_input(a), set_input(b),
                                              set_input(c)};
  const ap::AccumulationPlan plan =
      ap::compile_accumulation_plan(sets, ap::PlanOptions{});
  EXPECT_EQ(plan.live_sets, 3u);
  EXPECT_LT(plan.trie_expand_ops, plan.trie_expand_ops_unshared);
  EXPECT_EQ(plan.trie_expand_ops_unshared, 3u * 7u);
  // One emit per narrow set, all in the single shard.
  ASSERT_EQ(plan.shards.size(), 1u);
  std::size_t emits = 0;
  for (const ap::TrieOp& op : plan.shards[0].trie) emits += op.emit ? 1 : 0;
  EXPECT_EQ(emits, 3u);
}

TEST(AccPlan, PackedGatherRecipesReproduceKeys) {
  // Two wide sets with overlapping rows force a shared transpose-block
  // union spanning two 64-row blocks. Expanding each set's gather recipe
  // against the block tables must reproduce its key-bit code sequence
  // exactly (now rows ascending), one key bit per code.
  std::vector<std::size_t> a_pts, b_pts;
  for (std::size_t p = 0; p < 40; ++p) a_pts.push_back(p);
  for (std::size_t p = 30; p < 70; ++p) b_pts.push_back(p);
  const std::vector<ap::PlanSetInput> sets = {
      set_input(a_pts), set_input(b_pts)};
  const ap::AccumulationPlan plan =
      ap::compile_accumulation_plan(sets, ap::PlanOptions{});
  ASSERT_EQ(plan.shards.size(), 1u);
  const ap::ShardProgram& prog = plan.shards[0];
  ASSERT_EQ(prog.packed.size(), 2u);
  EXPECT_EQ(prog.blocks.size(), 2u);

  for (std::uint32_t i : prog.packed) {
    const ap::SetAccPlan& p = plan.sets[i];
    EXPECT_EQ(p.regime, ap::AccRegime::kPacked);
    std::vector<std::uint32_t> decoded;
    std::uint8_t expected_shift = 0;
    for (const ap::PackedGather& g : p.gathers) {
      EXPECT_EQ(g.shift, expected_shift);
      ASSERT_LT(g.block, prog.blocks.size());
      for (std::uint8_t bit = 0; bit < 64; ++bit)
        if (g.mask >> bit & 1) decoded.push_back(prog.blocks[g.block][bit]);
      expected_shift =
          static_cast<std::uint8_t>(expected_shift + __builtin_popcountll(g.mask));
    }
    EXPECT_EQ(decoded, p.rows);
    EXPECT_EQ(expected_shift, sets[i].observation_bits);
  }
}

TEST(AccPlan, ShardPartitionCoversEveryLiveSetOnce) {
  std::vector<std::vector<std::size_t>> points;
  std::vector<ap::PlanSetInput> sets;
  points.reserve(8);
  for (std::size_t i = 0; i < 8; ++i)
    points.push_back({3 * i, 3 * i + 1, 3 * i + 2});
  for (const auto& p : points) sets.push_back(set_input(p));
  ap::PlanOptions opts;
  opts.shards = 3;
  const ap::AccumulationPlan plan = ap::compile_accumulation_plan(sets, opts);
  ASSERT_EQ(plan.shards.size(), 3u);
  std::vector<int> seen(sets.size(), 0);
  for (std::size_t s = 0; s < plan.shards.size(); ++s)
    for (const ap::TrieOp& op : plan.shards[s].trie)
      if (op.emit) {
        ++seen[op.arg];
        EXPECT_EQ(plan.sets[op.arg].shard, s);
      }
  for (int count : seen) EXPECT_EQ(count, 1);
  // Requesting more shards than live sets clamps.
  opts.shards = 64;
  EXPECT_EQ(ap::compile_accumulation_plan(sets, opts).shards.size(), 8u);
}

TEST(AccPlan, TtestForcesHwRegimeAndDisablesHosting) {
  const std::vector<std::size_t> super = {0, 1, 2, 3};
  const std::vector<std::size_t> sub = {1, 2};
  const std::vector<ap::PlanSetInput> sets = {set_input(super),
                                              set_input(sub)};
  ap::PlanOptions opts;
  opts.ttest = true;
  const ap::AccumulationPlan plan = ap::compile_accumulation_plan(sets, opts);
  EXPECT_EQ(plan.hosted_sets, 0u);
  for (const ap::SetAccPlan& p : plan.sets)
    EXPECT_EQ(p.regime, ap::AccRegime::kTtestHw);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].ttest.size(), 2u);
}

// --- campaign-level bit-identity --------------------------------------------

Netlist sbox_netlist() {
  Netlist nl;
  gadgets::MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
  gadgets::build_masked_sbox(nl, options);
  return nl;
}

eval::CampaignOptions campaign_options(std::size_t sims) {
  eval::CampaignOptions opts;
  opts.model = eval::ProbeModel::kGlitch;
  opts.simulations = sims;
  opts.fixed_values[0] = 0x00;
  opts.seed = 11;
  return opts;
}

void expect_identical(const eval::CampaignResult& a,
                      const eval::CampaignResult& b, const std::string& tag) {
  EXPECT_EQ(a.pass, b.pass) << tag;
  EXPECT_EQ(a.leaking_sets, b.leaking_sets) << tag;
  EXPECT_EQ(a.max_minus_log10_p, b.max_minus_log10_p) << tag;
  EXPECT_EQ(a.aliased_probe_sets, b.aliased_probe_sets) << tag;
  ASSERT_EQ(a.results.size(), b.results.size()) << tag;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].name, b.results[i].name) << tag;
    EXPECT_EQ(a.results[i].minus_log10_p, b.results[i].minus_log10_p) << tag;
    if (a.statistic == eval::Statistic::kWelchTTest) {
      EXPECT_EQ(a.results[i].t.t, b.results[i].t.t) << tag;
      EXPECT_EQ(a.results[i].t.n_fixed, b.results[i].t.n_fixed) << tag;
      EXPECT_EQ(a.results[i].t.n_random, b.results[i].t.n_random) << tag;
    } else {
      EXPECT_EQ(a.results[i].g.g, b.results[i].g.g) << tag;
      EXPECT_EQ(a.results[i].g.n_fixed, b.results[i].g.n_fixed) << tag;
      EXPECT_EQ(a.results[i].g.n_random, b.results[i].g.n_random) << tag;
    }
  }
}

void expect_matches_reference(const eval::CampaignResult& result,
                              const std::vector<testutil::ReferenceSet>& ref,
                              const std::string& tag) {
  const std::vector<std::string> problems =
      testutil::reference_mismatches(result, ref);
  EXPECT_TRUE(problems.empty()) << tag << "\n" << testutil::joined(problems);
}

TEST(AccPlanCampaign, FusedMatchesScalarOracleAcrossLanesAndThreads) {
  // The tentpole contract: hosting, conjunction CSE, shared transposes and
  // the 2-D shard schedule are all plan structure, never statistics — the
  // fused pipeline at every lane width and thread count must reproduce the
  // scalar per-set reference bit for bit.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  const auto reference =
      testutil::reference_campaign(nl, campaign_options(12000));
  for (unsigned lanes : {64u, 256u, 512u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      eval::CampaignOptions opts = campaign_options(12000);
      opts.lanes = lanes;
      opts.threads = threads;
      const eval::CampaignResult r = eval::run_fixed_vs_random(nl, opts);
      EXPECT_FALSE(r.set_major);
      expect_matches_reference(r, reference,
                               "fused " + std::to_string(lanes) + " lanes / " +
                                   std::to_string(threads) + " threads");
    }
  }
}

TEST(AccPlanCampaign, SboxHostingPreservesStatistics) {
  // On the full masked Sbox most first-order glitch-extended sets are
  // strict subsets of their cone roots; the fused run must host a large
  // fraction of them and still match the reference exactly.
  const Netlist nl = sbox_netlist();
  const eval::CampaignResult fused =
      eval::run_fixed_vs_random(nl, campaign_options(4000));
  EXPECT_FALSE(fused.set_major);
  EXPECT_GT(fused.hosted_sets, 0u);
  expect_matches_reference(
      fused, testutil::reference_campaign(nl, campaign_options(4000)),
      "sbox hosted vs reference");

  // The alias counter is the sum of the per-representative alias lists.
  std::size_t alias_names = 0;
  for (const eval::ProbeSetResult& r : fused.results)
    alias_names += r.aliases.size();
  EXPECT_EQ(alias_names, fused.aliased_probe_sets);
}

TEST(AccPlanCampaign, CompactedRegimeFusedMatchesScalar) {
  // Glitch+transition doubles every key width; a tight observation cap
  // forces wide sets into the compacted HW-pair regime.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  eval::CampaignOptions opts = campaign_options(8000);
  opts.model = eval::ProbeModel::kGlitchTransition;
  opts.max_observation_bits = 6;
  opts.threads = 2;
  const eval::CampaignResult fused = eval::run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(fused.set_major);

  bool any_compacted = false;
  for (const eval::ProbeSetResult& r : fused.results)
    any_compacted |= r.compacted;
  EXPECT_TRUE(any_compacted);
  expect_matches_reference(fused, testutil::reference_campaign(nl, opts),
                           "compacted transition model");
}

TEST(AccPlanCampaign, TtestFusedMatchesScalar) {
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  eval::CampaignOptions opts = campaign_options(8000);
  opts.statistic = eval::Statistic::kWelchTTest;
  opts.threads = 2;
  const eval::CampaignResult fused = eval::run_fixed_vs_random(nl, opts);
  EXPECT_EQ(fused.statistic, eval::Statistic::kWelchTTest);
  EXPECT_FALSE(fused.set_major);
  expect_matches_reference(fused, testutil::reference_campaign(nl, opts),
                           "welch t-test");
}

TEST(AccPlanCampaign, ProbeSetShardsEngageAndPreserveStatistics) {
  // 12000 simulations fit one chunk, so an 8-thread fused run can only
  // scale by splitting the probe sets into shards; each (chunk, shard)
  // cell re-simulates its chunk. The shard schedule must engage and leave
  // every statistic bit-identical to the single-threaded run.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  eval::CampaignOptions single_opts = campaign_options(12000);
  single_opts.threads = 1;
  const eval::CampaignResult single = eval::run_fixed_vs_random(nl, single_opts);
  EXPECT_FALSE(single.set_major);
  EXPECT_EQ(single.set_shards, 1u);

  eval::CampaignOptions sharded_opts = campaign_options(12000);
  sharded_opts.threads = 8;
  const eval::CampaignResult sharded =
      eval::run_fixed_vs_random(nl, sharded_opts);
  EXPECT_FALSE(sharded.set_major);
  EXPECT_GT(sharded.set_shards, 1u);
  EXPECT_EQ(sharded.simulations_done, single.simulations_done);
  expect_identical(single, sharded, "2-D shard schedule");
}

// --- set-major driver ---------------------------------------------------------

TEST(SetMajorCampaign, Kron2Order2MatchesReferenceAcrossLanesAndThreads) {
  // The order-2 glitch+transition campaign over the 21-bit Kronecker has
  // tens of thousands of sets, hosted chains and compacted sets, so the
  // default table budget picks the set-major driver: one trace, counted
  // per host group. Its statistics must be the reference campaign's, bit
  // for bit, at every lane width and thread count.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron2_full_fresh(), 3);
  eval::CampaignOptions base = campaign_options(2048);
  base.model = eval::ProbeModel::kGlitchTransition;
  base.order = 2;
  const auto reference = testutil::reference_campaign(nl, base);
  bool any_compacted = false;
  for (const testutil::ReferenceSet& r : reference) any_compacted |= r.compacted;
  EXPECT_TRUE(any_compacted);
  for (unsigned lanes : {64u, 256u, 512u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      eval::CampaignOptions opts = base;
      opts.lanes = lanes;
      opts.threads = threads;
      const eval::CampaignResult r = eval::run_fixed_vs_random(nl, opts);
      const std::string tag = "set-major " + std::to_string(lanes) +
                              " lanes / " + std::to_string(threads) +
                              " threads";
      EXPECT_TRUE(r.set_major) << tag;
      EXPECT_EQ(r.table_batches, 1u) << tag;
      EXPECT_GT(r.hosted_sets, 0u) << tag;
      EXPECT_EQ(r.simulations_done, r.simulations_per_group) << tag;
      expect_matches_reference(r, reference, tag);
    }
  }
}

TEST(SetMajorCampaign, FirstOrderTtestUnderATightBudget) {
  // A first-order campaign goes set-major only when its tables overflow
  // the budget while its trace fits. On the masked Sbox, 1 MiB holds the
  // 192 KiB packed trace (8192 samples of 164 rows) but not the ~90 MB
  // table estimate. The t-test sets count Hamming weights from the trace
  // and must match the reference and the default budget's sample-major
  // run.
  const Netlist nl = sbox_netlist();
  eval::CampaignOptions opts = campaign_options(4000);
  opts.statistic = eval::Statistic::kWelchTTest;
  opts.threads = 2;
  opts.table_memory_budget = 1024 * 1024;
  const eval::CampaignResult set_major = eval::run_fixed_vs_random(nl, opts);
  EXPECT_TRUE(set_major.set_major);
  expect_matches_reference(set_major, testutil::reference_campaign(nl, opts),
                           "set-major welch t-test");

  opts.table_memory_budget = eval::CampaignOptions().table_memory_budget;
  const eval::CampaignResult sample_major =
      eval::run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(sample_major.set_major);
  expect_identical(set_major, sample_major, "set-major vs sample-major");
}

}  // namespace
}  // namespace sca
