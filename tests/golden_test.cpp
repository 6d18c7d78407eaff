// Golden-verdict regression suite: the paper's E1–E8 verdicts from
// EXPERIMENTS.md, asserted at small seeded budgets so CI catches any
// statistic, gadget, or probe-model regression. Every campaign here is
// deterministic (fixed seed, fixed budget, thread-count independent), so
// these are exact golden values, not statistical expectations:
//
//   E1  Sbox w/o Kronecker, fixed 0x01, glitch model      -> PASS
//   E2  Sbox w/ Kronecker + Eq.(6), fixed 0x00            -> FAIL, all
//       leaking probe sets localized in sbox.kron.G7.* (Fig. 3)
//   E3  7 fresh masks                                     -> PASS; exact
//       verifier secure over all 107 unique probes
//   E4  single reuse r1 = r3                              -> leaks,
//       worst probe kron.G7.inner0, TV distance exactly 0.125
//   E5  pair reuse r1 = r3, r2 = r4                       -> TV 0.375
//   E6  Eq.(9) (4 fresh bits)                             -> secure (exact
//       and sampled)
//   E7  r5 = r6                                           -> leaks, TV 0.5
//   E8  glitch+transition: Eq.(9) fails; r7 = r1..r4 secure, r7 = r5/r6
//       leak; minimum fresh bits = 6
//
// Plus the null-calibration guard: a random-vs-random campaign must stay
// under the 7.0 threshold on every probe set, and per-set G-test pins (df,
// bins, -log10 p) for E2 and a small order-2 glitch+transition campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/campaign.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_sbox2.hpp"
#include "src/lint/linter.hpp"
#include "src/verif/exact.hpp"
#include "tests/reference_campaign.hpp"

namespace sca::eval {
namespace {

using gadgets::MaskedSboxOptions;
using gadgets::RandomnessPlan;

// Small-budget goldens: E2's leak scales linearly with the budget (~72 at
// 20 k sims vs 723 at 200 k), while null maxima are budget-independent, so
// 20 k separates PASS from FAIL by an order of magnitude.
constexpr std::size_t kSims = 20'000;

// Per-set G-test pins: the df, bins and -log10 p of every probe set, for
// E2 at its test budget and for an order-2 glitch+transition campaign with
// a compacted (Hamming-weight pair) set. -log10 p is compared at a 1e-12
// relative tolerance (absolute below 1), not as a byte digest, so FMA
// contraction on other instruction sets cannot break the pins.
struct GTestPin {
  const char* name;
  std::size_t df;
  std::size_t bins;
  double minus_log10_p;
};

constexpr GTestPin kE2GTestPins[] = {
#include "tests/golden_gtest_pins_e2.inc"
};

constexpr GTestPin kKronOrder2GTestPins[] = {
#include "tests/golden_gtest_pins_kron_o2.inc"
};

void expect_pinned(const std::map<std::string, stats::GTestResult>& by_name,
                   std::span<const GTestPin> pins) {
  ASSERT_EQ(by_name.size(), pins.size());
  for (const GTestPin& pin : pins) {
    const auto it = by_name.find(pin.name);
    ASSERT_NE(it, by_name.end()) << pin.name;
    const stats::GTestResult& g = it->second;
    EXPECT_EQ(g.df, pin.df) << pin.name;
    EXPECT_EQ(g.bins, pin.bins) << pin.name;
    EXPECT_NEAR(g.minus_log10_p, pin.minus_log10_p,
                1e-12 * std::max(1.0, std::abs(pin.minus_log10_p)))
        << pin.name;
  }
}

void expect_pinned(const CampaignResult& result,
                   std::span<const GTestPin> pins) {
  std::map<std::string, stats::GTestResult> by_name;
  for (const ProbeSetResult& r : result.results) by_name[r.name] = r.g;
  ASSERT_EQ(by_name.size(), result.results.size());
  expect_pinned(by_name, pins);
}

TEST(GoldenVerdicts, E1SboxWithoutKroneckerPasses) {
  MaskedSboxOptions options;
  options.include_kronecker = false;
  const CampaignResult result =
      benchutil::run_sbox(options, 0x01, ProbeModel::kGlitch, kSims);
  EXPECT_TRUE(result.pass);
  EXPECT_EQ(result.leaking_sets, 0u);
  EXPECT_LT(result.max_minus_log10_p, 7.0);
}

TEST(GoldenVerdicts, E2KroneckerEq6FailsLocalizedInG7) {
  MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
  const CampaignResult result =
      benchutil::run_sbox(options, 0x00, ProbeModel::kGlitch, kSims);
  EXPECT_FALSE(result.pass);
  EXPECT_GT(result.max_minus_log10_p, 30.0);  // ~72 at this budget
  // Fig. 3's localization: every leaking probe set sits inside the
  // Kronecker gate G7, and the worst one is among them.
  ASSERT_GT(result.leaking_sets, 0u);
  for (const auto& r : result.results) {
    if (!r.leaking) continue;
    EXPECT_NE(r.name.find("sbox.kron.G7."), std::string::npos) << r.name;
  }
  EXPECT_NE(result.results.front().name.find("sbox.kron.G7."),
            std::string::npos);
  expect_pinned(result, kE2GTestPins);
}

TEST(GoldenVerdicts, E3FreshMasksPassSampledAndExact) {
  MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_full_fresh();
  const CampaignResult sampled =
      benchutil::run_sbox(options, 0x00, ProbeModel::kGlitch, kSims);
  EXPECT_TRUE(sampled.pass);

  const verif::ExactReport exact = verif::verify_first_order_glitch(
      benchutil::kronecker_netlist(RandomnessPlan::kron1_full_fresh()));
  EXPECT_FALSE(exact.any_leak);
  EXPECT_FALSE(exact.any_skipped);
  EXPECT_EQ(exact.probes_total, 107u);
}

TEST(GoldenVerdicts, E4SingleReuseLeaksWithTvOneEighth) {
  const verif::ExactReport report = verif::verify_first_order_glitch(
      benchutil::kronecker_netlist(RandomnessPlan::kron1_single_reuse_r1r3()));
  ASSERT_TRUE(report.any_leak);
  double worst_tv = 0.0;
  std::string worst_name;
  for (const auto* leak : report.leaking()) {
    if (leak->max_tv_distance > worst_tv) {
      worst_tv = leak->max_tv_distance;
      worst_name = leak->name;
    }
  }
  EXPECT_DOUBLE_EQ(worst_tv, 0.125);  // exact rational from enumeration
  EXPECT_EQ(worst_name, "kron.G7.inner0");
}

TEST(GoldenVerdicts, E5PairReuseIsStrictlyMoreSevere) {
  const verif::ExactReport report = verif::verify_first_order_glitch(
      benchutil::kronecker_netlist(RandomnessPlan::kron1_pair_reuse()));
  ASSERT_TRUE(report.any_leak);
  double worst_tv = 0.0;
  for (const auto* leak : report.leaking())
    worst_tv = std::max(worst_tv, leak->max_tv_distance);
  EXPECT_DOUBLE_EQ(worst_tv, 0.375);
}

TEST(GoldenVerdicts, E6ProposedEq9IsSecure) {
  const verif::ExactReport exact = verif::verify_first_order_glitch(
      benchutil::kronecker_netlist(RandomnessPlan::kron1_proposed_eq9()));
  EXPECT_FALSE(exact.any_leak);
  EXPECT_FALSE(exact.any_skipped);

  MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_proposed_eq9();
  const CampaignResult sampled =
      benchutil::run_sbox(options, 0x00, ProbeModel::kGlitch, kSims);
  EXPECT_TRUE(sampled.pass);
}

TEST(GoldenVerdicts, E7R5EqualsR6LeaksWithTvOneHalf) {
  const verif::ExactReport report = verif::verify_first_order_glitch(
      benchutil::kronecker_netlist(RandomnessPlan::kron1_r5_equals_r6()));
  ASSERT_TRUE(report.any_leak);
  double worst_tv = 0.0;
  for (const auto* leak : report.leaking())
    worst_tv = std::max(worst_tv, leak->max_tv_distance);
  EXPECT_DOUBLE_EQ(worst_tv, 0.5);

  const CampaignResult sampled = benchutil::run_kronecker(
      RandomnessPlan::kron1_r5_equals_r6(), ProbeModel::kGlitch, kSims);
  EXPECT_FALSE(sampled.pass);
}

TEST(GoldenVerdicts, E8TransitionSearchFindsTheFourSolutions) {
  const CampaignResult eq9 = benchutil::run_kronecker(
      RandomnessPlan::kron1_proposed_eq9(), ProbeModel::kGlitchTransition,
      kSims);
  EXPECT_FALSE(eq9.pass);  // Eq.(9) breaks once transitions are modeled

  SearchOptions options;
  options.model = ProbeModel::kGlitchTransition;
  options.simulations = kSims;
  const SearchResult search = search_r7_reuse(options);
  ASSERT_EQ(search.evaluations.size(), 7u);
  EXPECT_TRUE(search.evaluations[0].secure);  // 7 fresh baseline
  for (int i = 1; i <= 4; ++i)
    EXPECT_TRUE(search.evaluations[i].secure) << "r7 = r" << i;
  EXPECT_FALSE(search.evaluations[5].secure);  // r7 = r5
  EXPECT_FALSE(search.evaluations[6].secure);  // r7 = r6
  EXPECT_EQ(search.min_secure_fresh(), 6u);
}

// E9 (second order): the unoptimized and repaired-reduced second-order
// Kroneckers pass at orders 1 and 2; the naive 13-bit slot sharing passes
// order 1 but FAILS order 2 decisively (severity ~30+ at 4 k sims against
// the 7.0 threshold, budget-linear like E2, so these are stable goldens).
// The order-2 budget is small because the order-2 set universe (~32 k
// pairs) multiplies the per-simulation cost ~100x over order 1.
constexpr std::size_t kSims2 = 4'000;

TEST(GoldenVerdicts, E9NaiveThirteenPassesOrderOneFailsOrderTwo) {
  const auto naive = RandomnessPlan::kron2_naive13();
  const CampaignResult o1 = benchutil::run_kronecker(
      naive, ProbeModel::kGlitch, kSims, 1, 3);
  EXPECT_TRUE(o1.pass);
  const CampaignResult o2 = benchutil::run_kronecker(
      naive, ProbeModel::kGlitch, kSims2, 2, 3);
  EXPECT_FALSE(o2.pass);
  EXPECT_GT(o2.max_minus_log10_p, 15.0);  // ~30 at this budget
  // The leak is a probe *pair* inside the Kronecker.
  ASSERT_GT(o2.leaking_sets, 0u);
  EXPECT_NE(o2.results.front().name.find(" & "), std::string::npos);
  EXPECT_NE(o2.results.front().name.find("kron."), std::string::npos);
}

TEST(GoldenVerdicts, E9RepairedReducedPassesOrdersOneAndTwo) {
  const auto reduced = RandomnessPlan::kron2_reduced();
  EXPECT_EQ(reduced.fresh_count(), 18u);
  const CampaignResult o1 = benchutil::run_kronecker(
      reduced, ProbeModel::kGlitchTransition, kSims, 1, 3);
  EXPECT_TRUE(o1.pass);
  EXPECT_EQ(o1.leaking_sets, 0u);
  const CampaignResult o2 = benchutil::run_kronecker(
      reduced, ProbeModel::kGlitchTransition, kSims2, 2, 3);
  EXPECT_TRUE(o2.pass);
  EXPECT_EQ(o2.leaking_sets, 0u);
  EXPECT_LT(o2.max_minus_log10_p, 7.0);
}

// E10 (static whole-Sbox verdicts): the support-annotation sublattice lets
// the linter cover the *entire* masked Sbox — Kronecker, B2M, inversion,
// M2B — with no scope fence, reproducing the paper's verdicts statically:
// Eq.(6) flags exactly the six G7 probes as R1 fresh-reuse completing the
// odd-bit sharings (Fig. 3's localization), Eq.(9) is clean, and dropping
// the Kronecker flags the exposed B2M products as R5 (X = 0 defeats
// multiplicative blinding — the paper's motivation for the delta in the
// first place). The second-order Sbox (E9's subject) is clean whole-design
// at order 1 too.
TEST(GoldenVerdicts, E10WholeSboxLintEq6FlagsG7AndEq9Clean) {
  {
    netlist::Netlist nl;
    MaskedSboxOptions options;
    options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
    gadgets::build_masked_sbox(nl, options);
    const lint::LintReport report = lint::run_lint(nl);
    EXPECT_EQ(report.findings.size(), 6u) << to_string(report);
    for (const auto& f : report.findings) {
      EXPECT_EQ(f.rule, lint::LintRule::kR1FreshReuse) << f.message;
      EXPECT_NE(f.probe_name.find("sbox.kron.G7."), std::string::npos)
          << f.message;
      // Eq.(6)'s reuse completes the odd-bit sharings two cycles back.
      EXPECT_FALSE(f.completed.empty());
      for (const std::string& c : f.completed)
        EXPECT_TRUE(c == "s0.b1@t-2" || c == "s0.b3@t-2" ||
                    c == "s0.b5@t-2" || c == "s0.b7@t-2")
            << c;
    }
  }
  {
    netlist::Netlist nl;
    MaskedSboxOptions options;
    options.kron_plan = RandomnessPlan::kron1_proposed_eq9();
    gadgets::build_masked_sbox(nl, options);
    const lint::LintReport report = lint::run_lint(nl);
    EXPECT_TRUE(report.clean()) << to_string(report);
    EXPECT_GT(report.cuts_applied, 1000u);  // the sublattice did real work
  }
}

TEST(GoldenVerdicts, E10SboxWithoutKroneckerFlagsExposedProductsR5) {
  netlist::Netlist nl;
  MaskedSboxOptions options;
  options.include_kronecker = false;
  gadgets::build_masked_sbox(nl, options);
  const lint::LintReport report = lint::run_lint(nl);
  ASSERT_FALSE(report.clean());
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.rule, lint::LintRule::kR5MultiplicativeBlinding)
        << f.message;
    // Every finding reaches the secret through the B2M product bytes.
    ASSERT_FALSE(f.offending.empty());
    EXPECT_NE(f.offending.front().find("sbox.b2m.p1"), std::string::npos)
        << f.offending.front();
  }
  // Contrast with E1: the sampler passes this design (fixed 0x01 avoids
  // the zero class), while the linter's verdict is unconditional — the
  // static analysis sees the X = 0 hazard a lucky campaign misses.
}

TEST(GoldenVerdicts, E10SecondOrderSboxWholeDesignLintClean) {
  netlist::Netlist nl;
  gadgets::MaskedSbox2Options options;
  options.kron_plan = RandomnessPlan::kron2_reduced();
  gadgets::build_masked_sbox2(nl, options);
  const lint::LintReport report = lint::run_lint(nl);
  EXPECT_TRUE(report.clean()) << to_string(report);
  EXPECT_GT(report.probes_checked, 2000u);
}

// Null calibration: with the fixed group drawing random secrets too, the
// null hypothesis is true by construction — a verdict above 7.0 would be a
// false positive of the G-test/Williams-correction path itself. The max
// over N probe sets should behave like the max of N null p-values
// (~log10(N) ~ 3), far below the threshold.
TEST(GoldenVerdicts, NullCalibrationProducesNoVerdicts) {
  netlist::Netlist nl;
  gadgets::MaskedSboxOptions sbox_opts;
  sbox_opts.kron_plan = RandomnessPlan::kron1_proposed_eq9();
  const gadgets::MaskedSbox sbox = gadgets::build_masked_sbox(nl, sbox_opts);
  CampaignOptions opts;
  opts.model = ProbeModel::kGlitch;
  opts.simulations = kSims;
  opts.fixed_values[0] = 0x00;
  opts.nonzero_random_buses = {sbox.rand_b2m};
  opts.null_calibration = true;
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_TRUE(result.pass);
  EXPECT_EQ(result.leaking_sets, 0u);
  EXPECT_LT(result.max_minus_log10_p, 7.0);
  // Sanity: the campaign really evaluated the full probe universe and the
  // statistics are alive (a max of exactly 0 would mean empty tables).
  EXPECT_GT(result.total_sets, 500u);
  EXPECT_GT(result.max_minus_log10_p, 0.1);
}

// The order-2 glitch+transition campaign over kron.G7 behind
// kKronOrder2GTestPins.
CampaignOptions kron_order2_options(netlist::Netlist& nl) {
  std::vector<gadgets::Bus> shares;
  for (std::uint32_t i = 0; i < 2; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, netlist::InputRole::kShare, "b" + std::to_string(i) + "_", 0,
        i));
  gadgets::build_kronecker(nl, shares, RandomnessPlan::kron1_demeyer_eq6());
  CampaignOptions opts;
  opts.model = ProbeModel::kGlitchTransition;
  opts.order = 2;
  opts.simulations = 4000;
  opts.fixed_values[0] = 0x00;
  opts.probe_scope_filter = "kron.G7";
  return opts;
}

TEST(GoldenGTestPins, Order2GlitchTransitionWithCompactedSets) {
  netlist::Netlist nl;
  const CampaignOptions opts = kron_order2_options(nl);
  const CampaignResult result = run_fixed_vs_random(nl, opts);
  EXPECT_TRUE(std::any_of(result.results.begin(), result.results.end(),
                          [](const ProbeSetResult& r) { return r.compacted; }));
  expect_pinned(result, kKronOrder2GTestPins);
}

// The scalar reference campaign the equivalence tests compare against must
// itself reproduce the pinned numbers, so it is anchored to the pins and
// not only to the production engine.
TEST(GoldenGTestPins, ReferenceCampaignReproducesOrder2Pins) {
  netlist::Netlist nl;
  const CampaignOptions opts = kron_order2_options(nl);
  const std::vector<testutil::ReferenceSet> reference =
      testutil::reference_campaign(nl, opts);
  std::map<std::string, stats::GTestResult> by_name;
  bool any_compacted = false;
  for (const testutil::ReferenceSet& r : reference) {
    by_name[r.name] = r.g;
    any_compacted |= r.compacted;
  }
  EXPECT_TRUE(any_compacted);
  EXPECT_EQ(by_name.size(), reference.size());
  expect_pinned(by_name, kKronOrder2GTestPins);
}

}  // namespace
}  // namespace sca::eval
