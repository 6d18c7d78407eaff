#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/core/campaign_parts.hpp"
#include "src/core/probes.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/dom.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"
#include "tests/reference_campaign.hpp"

namespace sca::eval {
namespace {

using gadgets::Bus;
using gadgets::RandomnessPlan;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

Netlist kronecker_netlist(const RandomnessPlan& plan, std::size_t shares = 2) {
  Netlist nl;
  std::vector<Bus> share_buses;
  for (std::size_t i = 0; i < shares; ++i)
    share_buses.push_back(gadgets::make_input_bus(
        nl, 8, InputRole::kShare, "b" + std::to_string(i) + "_", 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, share_buses, plan);
  return nl;
}

CampaignOptions kron_options(ProbeModel model, std::size_t sims) {
  CampaignOptions opts;
  opts.model = model;
  opts.simulations = sims;
  opts.fixed_values[0] = 0x00;  // the zero-value corner
  return opts;
}

// --- probe universe ---------------------------------------------------------------

TEST(Probes, DeduplicatesEquivalentPositions) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId x1 = nl.xor_(a, b);
  const SignalId x2 = nl.xnor_(a, b);  // same glitch-extended observation
  nl.not_(x1);
  (void)x2;
  const netlist::StableSupport supports(nl);
  const auto universe = build_probe_universe(nl, supports);
  // Unique observations: {a}, {b}, {a, b} — the three XOR-ish gates collapse.
  EXPECT_EQ(universe.size(), 3u);
}

TEST(Probes, ScopeFilterRestricts) {
  Netlist nl;
  nl.push_scope("inner");
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  nl.name_signal(nl.not_(a), "na");
  nl.pop_scope();
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  nl.not_(b);
  // An input and its inverter share one glitch-extended observation set, so
  // the unfiltered universe dedups to {a} and {b}.
  const netlist::StableSupport supports(nl);
  EXPECT_EQ(build_probe_universe(nl, supports).size(), 2u);
  const auto filtered = build_probe_universe(nl, supports, "inner.");
  EXPECT_EQ(filtered.size(), 1u);
  for (const auto& p : filtered)
    EXPECT_EQ(p.name.rfind("inner.", 0), 0u) << p.name;
}

TEST(Probes, EnumerateSets) {
  EXPECT_EQ(enumerate_probe_sets(5, 1).size(), 5u);
  EXPECT_EQ(enumerate_probe_sets(5, 2).size(), 10u);
  EXPECT_EQ(enumerate_probe_sets(5, 3).size(), 10u);
  EXPECT_THROW(enumerate_probe_sets(5, 4), common::Error);
}

TEST(Probes, EnumerateSetsEdgeCases) {
  // A universe smaller than the order has no sets of that size: empty, not
  // an error (the order-2 sweep over a one-probe scope is vacuously clean).
  EXPECT_TRUE(enumerate_probe_sets(1, 2).empty());
  EXPECT_TRUE(enumerate_probe_sets(0, 1).empty());
  EXPECT_TRUE(enumerate_probe_sets(2, 3).empty());
  // Order 0 would be the empty observation — meaningless, rejected.
  EXPECT_THROW(enumerate_probe_sets(5, 0), common::Error);
  EXPECT_THROW(enumerate_probe_sets(0, 0), common::Error);
}

TEST(Probes, UnionObservationMergesAndValidates) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId c = nl.add_input(InputRole::kControl, "c");
  nl.and_(a, b);
  nl.and_(b, c);
  const netlist::StableSupport supports(nl);
  const auto universe = build_probe_universe(nl, supports);
  // {a}, {b}, {c}, {a,b}, {b,c} — five distinct observation sets.
  ASSERT_EQ(universe.size(), 5u);
  std::size_t ab = universe.size(), bc = universe.size();
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (universe[i].observed == std::vector<SignalId>{a, b}) ab = i;
    if (universe[i].observed == std::vector<SignalId>{b, c}) bc = i;
  }
  ASSERT_LT(ab, universe.size());
  ASSERT_LT(bc, universe.size());
  const auto& lo = std::min(ab, bc);
  const auto& hi = std::max(ab, bc);
  // The joint observation dedups the shared b and stays ascending.
  EXPECT_EQ(union_observation(universe, {lo, hi}),
            (std::vector<SignalId>{a, b, c}));
  // A single-probe "union" is the probe's own observation set.
  EXPECT_EQ(union_observation(universe, {ab}), universe[ab].observed);
  // Empty sets, duplicate indices (an order-2 set silently collapsing to
  // order 1), ill-ordered and out-of-range sets are all rejected.
  EXPECT_THROW(union_observation(universe, {}), common::Error);
  EXPECT_THROW(union_observation(universe, {ab, ab}), common::Error);
  EXPECT_THROW(union_observation(universe, {hi, lo}), common::Error);
  EXPECT_THROW(union_observation(universe, {universe.size()}), common::Error);
}

// --- campaign basics ---------------------------------------------------------------

TEST(Campaign, RequiresShares) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  nl.not_(a);
  EXPECT_THROW(run_fixed_vs_random(nl, CampaignOptions{}), common::Error);
}

TEST(Campaign, UnmaskedRecombinationFailsImmediately) {
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.name_signal(nl.xor_(s0, s1), "secret");
  CampaignOptions opts;
  opts.simulations = 20000;
  opts.fixed_values[0] = 1;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(result.pass);
  EXPECT_GT(result.max_minus_log10_p, 100.0);
  EXPECT_EQ(result.results.front().name, "secret");
}

TEST(Campaign, DomAndPasses) {
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  std::vector<SignalId> y = {nl.add_input(InputRole::kShare, "y0", {1, 0, 0}),
                             nl.add_input(InputRole::kShare, "y1", {1, 1, 0})};
  std::vector<SignalId> r = {nl.add_input(InputRole::kRandom, "r")};
  gadgets::build_dom_and(nl, x, y, r, "dom");
  CampaignOptions opts;
  opts.simulations = 50000;
  opts.fixed_values[0] = 1;
  opts.fixed_values[1] = 1;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_TRUE(result.pass) << to_string(result);
}

TEST(Campaign, ResultBookkeeping) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  const CampaignResult result =
      run_fixed_vs_random(nl, kron_options(ProbeModel::kGlitch, 20000));
  EXPECT_GT(result.total_sets, 50u);
  EXPECT_EQ(result.results.size(), result.total_sets);
  EXPECT_GE(result.simulations_per_group, 20000u);
  // Sorted descending.
  for (std::size_t i = 1; i < result.results.size(); ++i)
    EXPECT_GE(result.results[i - 1].minus_log10_p,
              result.results[i].minus_log10_p);
  // Report renders.
  const std::string text = to_string(result);
  EXPECT_NE(text.find("fixed-vs-random"), std::string::npos);
  EXPECT_NE(text.find(result.pass ? "PASS" : "FAIL"), std::string::npos);
}

TEST(Campaign, MaxProbeSetCapIsReported) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 5000);
  opts.max_probe_sets = 10;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_EQ(result.total_sets, 10u);
  EXPECT_GT(result.dropped_sets, 0u);
  EXPECT_NE(to_string(result).find("WARNING"), std::string::npos);
}

// --- the paper's claims, sampled (glitch model) -------------------------------------

struct PlanVerdict {
  const char* plan;
  ProbeModel model;
  bool expect_pass;
};

// Prints the parameter by value. gtest's default byte dump would show the
// `plan` pointer (and padding), so ctest test names would change on every
// run under address-space randomization.
void PrintTo(const PlanVerdict& v, std::ostream* os) {
  *os << "{" << v.plan << ", "
      << (v.model == ProbeModel::kGlitch ? "glitch" : "transition") << ", "
      << (v.expect_pass ? "pass" : "fail") << "}";
}

class CampaignPaperClaims : public ::testing::TestWithParam<PlanVerdict> {
 protected:
  static RandomnessPlan plan_by_name(const std::string& name) {
    if (name == "full") return RandomnessPlan::kron1_full_fresh();
    if (name == "eq6") return RandomnessPlan::kron1_demeyer_eq6();
    if (name == "eq9") return RandomnessPlan::kron1_proposed_eq9();
    if (name == "r5r6") return RandomnessPlan::kron1_r5_equals_r6();
    if (name == "trans1") return RandomnessPlan::kron1_transition_secure(1);
    if (name == "trans2") return RandomnessPlan::kron1_transition_secure(2);
    if (name == "trans3") return RandomnessPlan::kron1_transition_secure(3);
    if (name == "trans4") return RandomnessPlan::kron1_transition_secure(4);
    throw common::Error("unknown plan in test");
  }
};

TEST_P(CampaignPaperClaims, Verdict) {
  const PlanVerdict param = GetParam();
  Netlist nl = kronecker_netlist(plan_by_name(param.plan));
  const CampaignResult result =
      run_fixed_vs_random(nl, kron_options(param.model, 100000));
  EXPECT_EQ(result.pass, param.expect_pass)
      << param.plan << "\n"
      << to_string(result);
  if (!param.expect_pass) {
    // Real leaks are gross: far beyond the 10^-7 threshold.
    EXPECT_GT(result.max_minus_log10_p, 30.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, CampaignPaperClaims,
    ::testing::Values(
        // Section III, glitch model.
        PlanVerdict{"full", ProbeModel::kGlitch, true},
        PlanVerdict{"eq6", ProbeModel::kGlitch, false},
        PlanVerdict{"eq9", ProbeModel::kGlitch, true},
        PlanVerdict{"r5r6", ProbeModel::kGlitch, false},
        // Section IV, transitions: Eq.(9) breaks, the r7-family holds.
        PlanVerdict{"eq9", ProbeModel::kGlitchTransition, false},
        PlanVerdict{"eq6", ProbeModel::kGlitchTransition, false},
        PlanVerdict{"full", ProbeModel::kGlitchTransition, true},
        PlanVerdict{"trans1", ProbeModel::kGlitchTransition, true},
        PlanVerdict{"trans2", ProbeModel::kGlitchTransition, true},
        PlanVerdict{"trans3", ProbeModel::kGlitchTransition, true},
        PlanVerdict{"trans4", ProbeModel::kGlitchTransition, true}),
    [](const auto& info) {
      return std::string(info.param.plan) +
             (info.param.model == ProbeModel::kGlitch ? "_glitch" : "_trans");
    });

TEST(Campaign, Eq6LeakNamesG7) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  const CampaignResult result =
      run_fixed_vs_random(nl, kron_options(ProbeModel::kGlitch, 100000));
  ASSERT_FALSE(result.pass);
  EXPECT_NE(result.results.front().name.find("G7"), std::string::npos)
      << result.results.front().name;
}

TEST(Campaign, SeedsReproduce) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 20000);
  opts.seed = 42;
  const CampaignResult a = run_fixed_vs_random(nl, opts);
  const CampaignResult b = run_fixed_vs_random(nl, opts);
  EXPECT_EQ(a.max_minus_log10_p, b.max_minus_log10_p);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  // The contract of the sharded engine: the chunk grid and per-chunk RNG
  // streams depend only on the workload and seed, never on the thread count,
  // so every statistic is bit-identical for threads in {1, 2, 8}.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 20000);
  opts.seed = 7;

  opts.threads = 1;
  const CampaignResult base = run_fixed_vs_random(nl, opts);
  for (unsigned threads : {2u, 8u}) {
    opts.threads = threads;
    const CampaignResult result = run_fixed_vs_random(nl, opts);
    EXPECT_EQ(result.threads_used, threads);
    EXPECT_EQ(result.pass, base.pass);
    EXPECT_EQ(result.max_minus_log10_p, base.max_minus_log10_p)
        << threads << " threads";
    ASSERT_EQ(result.results.size(), base.results.size());
    for (std::size_t i = 0; i < base.results.size(); ++i) {
      EXPECT_EQ(result.results[i].name, base.results[i].name);
      EXPECT_EQ(result.results[i].g.g, base.results[i].g.g);
      EXPECT_EQ(result.results[i].minus_log10_p,
                base.results[i].minus_log10_p);
    }
  }
}

TEST(Campaign, DeterministicUnderTableBatching) {
  // Probe-set batching (small table_memory_budget) must compose with
  // sharding without changing any statistic.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 20000);
  opts.threads = 2;
  const CampaignResult unbatched = run_fixed_vs_random(nl, opts);
  opts.table_memory_budget = 4 * 1024;  // forces many batches
  const CampaignResult batched = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(unbatched.set_major);
  EXPECT_FALSE(batched.set_major);
  EXPECT_GT(batched.table_batches, unbatched.table_batches);
  EXPECT_EQ(batched.max_minus_log10_p, unbatched.max_minus_log10_p);
  ASSERT_EQ(batched.results.size(), unbatched.results.size());
  for (std::size_t i = 0; i < unbatched.results.size(); ++i)
    EXPECT_EQ(batched.results[i].minus_log10_p,
              unbatched.results[i].minus_log10_p);
}

TEST(Campaign, BitSlicedMatchesScalarBinForBin) {
  // The bit-sliced accumulation (CSA popcounts, packed transposes, flat
  // direct-indexed tables) must be a pure speedup: every statistic is
  // bit-identical to the scalar per-lane reference campaign on the same
  // seed, across the glitch model, the transition model, and both thread
  // counts.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  for (ProbeModel model : {ProbeModel::kGlitch, ProbeModel::kGlitchTransition}) {
    CampaignOptions opts = kron_options(model, 2000);
    opts.seed = 11;
    const auto reference = testutil::reference_campaign(nl, opts);
    for (unsigned threads : {1u, 2u}) {
      opts.threads = threads;
      const CampaignResult sliced = run_fixed_vs_random(nl, opts);
      const auto problems = testutil::reference_mismatches(sliced, reference);
      EXPECT_TRUE(problems.empty())
          << threads << " threads\n" << testutil::joined(problems);
    }
  }
}

TEST(Campaign, BitSlicedMatchesScalarTTest) {
  // Same contract for the t-test: the vertical-counter Hamming-weight
  // histograms must equal the per-lane scalar weights, so the folded t is
  // bit-identical.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 2000);
  opts.statistic = Statistic::kWelchTTest;
  opts.threads = 2;
  const CampaignResult sliced = run_fixed_vs_random(nl, opts);
  const auto problems = testutil::reference_mismatches(
      sliced, testutil::reference_campaign(nl, opts));
  EXPECT_TRUE(problems.empty()) << testutil::joined(problems);
}

TEST(Campaign, TransitionSampleWithoutWarmupSeesTheResetState) {
  // With no warmup the first sample is taken in the first cycle after the
  // simulator reset, so its previous-cycle half is the all-zero reset
  // state, never a row left over from another run: the statistics match
  // the reference at every lane width and thread count.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = kron_options(ProbeModel::kGlitchTransition, 4000);
  opts.warmup_cycles = 0;
  opts.sample_interval = 1;
  const auto reference = testutil::reference_campaign(nl, opts);
  for (const auto& [lanes, threads] :
       {std::pair{64u, 1u}, std::pair{512u, 8u}}) {
    opts.lanes = lanes;
    opts.threads = threads;
    const auto problems =
        testutil::reference_mismatches(run_fixed_vs_random(nl, opts), reference);
    EXPECT_TRUE(problems.empty())
        << lanes << " lanes / " << threads << " threads\n"
        << testutil::joined(problems);
  }
}

TEST(Campaign, ProducerStartsBothGroupsFromTheResetState) {
  // Without warmup each group's first transition sample sees the all-zero
  // reset state as its previous cycle, never the fixed group's last rows
  // or an earlier run's rows in the reused buffer; later samples see the
  // cycle before.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = kron_options(ProbeModel::kGlitchTransition, 64);
  opts.warmup_cycles = 0;
  opts.sample_interval = 1;
  opts.samples_per_run = 3;
  const auto rows = detail::prepare_probe_sets(nl, opts).stable_points;
  const detail::InputFeeder feeder(nl, opts);
  sim::Simulator simulator(nl);
  const std::vector<std::uint64_t> reset(rows.size(), 0);
  std::vector<detail::Sample> s;
  for (std::size_t run = 0; run < 2; ++run) {
    detail::produce_samples(simulator, feeder, common::CounterPrg(opts.seed),
                            run, /*active=*/1, /*transitions=*/true, rows, s);
    ASSERT_EQ(s.size(), 6u);
    EXPECT_NE(s[2].now, reset);  // so a carried-over row would show
    for (std::size_t k = 0; k < 6; ++k)
      EXPECT_EQ(s[k].prev, k % 3 == 0 ? reset : s[k - 1].now)
          << "run " << run << " sample " << k;
  }
}

TEST(Campaign, TTestDeterministicAcrossThreadCounts) {
  // Welford moment merging is FP-order-sensitive; the ordered chunk merge
  // must make the t statistic bit-identical too.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 20000);
  opts.statistic = Statistic::kWelchTTest;
  opts.threads = 1;
  const CampaignResult base = run_fixed_vs_random(nl, opts);
  opts.threads = 8;
  const CampaignResult wide = run_fixed_vs_random(nl, opts);
  ASSERT_EQ(wide.results.size(), base.results.size());
  for (std::size_t i = 0; i < base.results.size(); ++i)
    EXPECT_EQ(wide.results[i].severity, base.results[i].severity);
}

TEST(Campaign, ThreadsEnvVariableIsHonored) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 5000);
  ::setenv("SCA_THREADS", "3", 1);
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  ::unsetenv("SCA_THREADS");
  EXPECT_EQ(result.threads_used, 3u);
}

TEST(Campaign, SecondOrderFindsPairLeakInvisibleAtFirstOrder) {
  // A circuit that is first-order secure but leaks jointly: two registers
  // holding the two shares of a secret. Any single extended probe sees one
  // share; the pair sees both.
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.name_signal(nl.reg(s0), "r0");
  nl.name_signal(nl.reg(s1), "r1");
  CampaignOptions opts;
  opts.simulations = 50000;
  opts.fixed_values[0] = 1;

  opts.order = 1;
  EXPECT_TRUE(run_fixed_vs_random(nl, opts).pass);
  opts.order = 2;
  const CampaignResult second = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(second.pass);
  EXPECT_NE(second.results.front().name.find("&"), std::string::npos);
}


TEST(Campaign, TTestStatisticFlagsUnmaskedRegisteredValue) {
  // The t-test works on the Hamming weight of the *stable* observation. A
  // combinational XOR of the shares is invisible to it (the extended probe
  // sees the two shares, whose joint HW mean is 1 for any secret) — the
  // unmasked value must be registered to shift an observable mean, which is
  // exactly what happens when a real design stores an unmasked intermediate.
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  const SignalId stored = nl.reg(nl.xor_(s0, s1));
  nl.name_signal(stored, "secret_reg");
  nl.not_(stored);  // a consumer probing the register
  CampaignOptions opts;
  opts.statistic = Statistic::kWelchTTest;
  opts.simulations = 50000;
  opts.fixed_values[0] = 1;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_FALSE(result.pass);
  EXPECT_GT(result.results.front().severity, stats::kTvlaThreshold);
  EXPECT_EQ(result.results.front().name, "secret_reg");
}

TEST(Campaign, TTestMissesTheEq6LeakTheGTestCatches) {
  // A methodological finding this reproduction surfaced: the Eq.(6) flaw
  // changes the *joint distribution* of the probe observation but not its
  // Hamming-weight mean, so the univariate TVLA t-test stays silent where
  // the PROLEAD-style distribution test triggers — one more motivation for
  // the paper's choice of tool.
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 100000);
  opts.statistic = Statistic::kWelchTTest;
  EXPECT_TRUE(run_fixed_vs_random(nl, opts).pass);
  opts.statistic = Statistic::kGTest;
  EXPECT_FALSE(run_fixed_vs_random(nl, opts).pass);
}

TEST(Campaign, TTestRejectsOrderTwo) {
  Netlist nl = kronecker_netlist(RandomnessPlan::kron1_full_fresh());
  CampaignOptions opts = kron_options(ProbeModel::kGlitch, 5000);
  opts.statistic = Statistic::kWelchTTest;
  opts.order = 2;
  EXPECT_THROW(run_fixed_vs_random(nl, opts), common::Error);
}

// --- search -------------------------------------------------------------------------

TEST(Search, GlitchModelMinimumIsFourBits) {
  // Under the glitch-only model the exact verifier drives the search; the
  // paper's Eq. (9) shows 4 fresh bits suffice. Restrict the exhaustive
  // partition search to <= 4 fresh bits and confirm a secure 4-bit plan
  // exists but no cheaper one.
  SearchOptions opts;
  opts.model = ProbeModel::kGlitch;
  const SearchResult result = search_all_partitions(opts, /*max_fresh=*/4);
  EXPECT_EQ(result.min_secure_fresh(), 4u);
  // Eq. (9) itself must be among the secure plans (up to renaming, the
  // partition 0123312 == r1..r4 fresh, r5=r4, r6=r2, r7=r3).
  bool found_eq9_shape = false;
  for (const auto* plan : result.secure_plans()) {
    const auto& slots = plan->plan.slots();
    if (slots[4] == slots[3] && slots[5] == slots[1] && slots[6] == slots[2])
      found_eq9_shape = true;
  }
  EXPECT_TRUE(found_eq9_shape);
}

TEST(Search, TransitionModelR7Family) {
  // Section IV: with r1..r6 fresh, exactly r7 in {r1, r2, r3, r4} (and the
  // fully fresh baseline) survive the glitch+transition model.
  SearchOptions opts;
  opts.model = ProbeModel::kGlitchTransition;
  opts.simulations = 60000;
  const SearchResult result = search_r7_reuse(opts);
  ASSERT_EQ(result.evaluations.size(), 7u);
  EXPECT_TRUE(result.evaluations[0].secure);  // full fresh
  for (int i = 1; i <= 4; ++i)
    EXPECT_TRUE(result.evaluations[i].secure)
        << result.evaluations[i].plan.name();
  EXPECT_FALSE(result.evaluations[5].secure);  // r7 = r5
  EXPECT_FALSE(result.evaluations[6].secure);  // r7 = r6
  EXPECT_EQ(result.min_secure_fresh(), 6u);
}

TEST(Search, EvaluateSinglePlanUsesExactForGlitch) {
  SearchOptions opts;
  opts.model = ProbeModel::kGlitch;
  const PlanEvaluation eval =
      evaluate_kron1_plan(RandomnessPlan::kron1_demeyer_eq6(), opts);
  EXPECT_TRUE(eval.exact);
  EXPECT_FALSE(eval.secure);
  EXPECT_GT(eval.severity, 0.0);
  EXPECT_FALSE(eval.worst_probe.empty());
}

}  // namespace
}  // namespace sca::eval
