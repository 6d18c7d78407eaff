#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/common/check.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/dom.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/netlist/ir.hpp"
#include "src/verif/exact.hpp"
#include "src/verif/unroll.hpp"

namespace sca::verif {
namespace {

using gadgets::Bus;
using gadgets::RandomnessPlan;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

// --- unrolling -----------------------------------------------------------------

TEST(Unroll, SequentialDepthOfPipelines) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  EXPECT_EQ(sequential_depth(nl), 0u);
  const SignalId r1 = nl.reg(a);
  EXPECT_EQ(sequential_depth(nl), 1u);
  const SignalId r2 = nl.reg(nl.not_(r1));
  nl.reg(nl.xor_(r2, a));
  EXPECT_EQ(sequential_depth(nl), 3u);
}

TEST(Unroll, RejectsRegisterFeedback) {
  Netlist nl;
  const SignalId q = nl.make_reg_placeholder();
  nl.connect_reg(q, nl.not_(q));
  EXPECT_THROW(sequential_depth(nl), common::Error);
}

TEST(Unroll, CreatesPerCycleInputs) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kRandom, "a");
  nl.reg(a);
  const Unrolled u = unroll(nl, 3);
  EXPECT_EQ(u.nl.inputs().size(), 3u);
  EXPECT_EQ(u.input_cycle.size(), 3u);
  EXPECT_EQ(u.input_cycle[0], 0u);
  EXPECT_EQ(u.input_cycle[2], 2u);
  EXPECT_EQ(u.nl.registers().size(), 0u);
}

TEST(Unroll, RegisterAliasesPreviousCycle) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId r = nl.reg(a);
  const Unrolled u = unroll(nl, 2);
  // r at cycle 1 aliases a's cycle-0 instance; r at cycle 0 is undefined.
  EXPECT_EQ(u.map[0][r], netlist::kNoSignal);
  EXPECT_EQ(u.map[1][r], u.map[0][a]);
}

TEST(Unroll, DeepRegistersNeedEnoughCycles) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId r2 = nl.reg(nl.reg(a));
  const Unrolled u = unroll(nl, 3);
  EXPECT_EQ(u.map[1][r2], netlist::kNoSignal);
  EXPECT_NE(u.map[2][r2], netlist::kNoSignal);
}

// --- exact verifier on hand-built circuits ---------------------------------------

// A deliberately broken "masked" circuit: it recombines the shares.
TEST(Exact, UnmaskedRecombinationLeaks) {
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.xor_(s0, s1);  // the secret, in the clear
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_TRUE(report.any_leak);
  // The leaking probe's distributions must be maximally apart (TV = 1).
  EXPECT_DOUBLE_EQ(report.leaking().front()->max_tv_distance, 1.0);
}

TEST(Exact, SingleShareProbeIsSecure) {
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.not_(s0);  // touches only one share
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_FALSE(report.any_leak);
}

TEST(Exact, UnprotectedAndOfSharesLeaks) {
  // x0 & x1 (shares of the same secret): classic first-order leak.
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.and_(s0, s1);
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_TRUE(report.any_leak);
}

TEST(Exact, DomAndIsFirstOrderSecure) {
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  std::vector<SignalId> y = {nl.add_input(InputRole::kShare, "y0", {1, 0, 0}),
                             nl.add_input(InputRole::kShare, "y1", {1, 1, 0})};
  std::vector<SignalId> r = {nl.add_input(InputRole::kRandom, "r")};
  gadgets::build_dom_and(nl, x, y, r, "dom");
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_FALSE(report.any_leak);
  EXPECT_FALSE(report.any_skipped);
}

TEST(Exact, DomAndWithoutMaskLeaks) {
  // Replacing the fresh mask with a constant breaks DOM: the cross-domain
  // register then stores x^i y^j unblinded and the output XOR's probe sees
  // both shares of y.
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  std::vector<SignalId> y = {nl.add_input(InputRole::kShare, "y0", {1, 0, 0}),
                             nl.add_input(InputRole::kShare, "y1", {1, 1, 0})};
  std::vector<SignalId> r = {nl.constant(false)};
  gadgets::build_dom_and(nl, x, y, r, "dom");
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_TRUE(report.any_leak);
}

TEST(Exact, TwoDomAndsSharingOneMaskLeak) {
  // The minimal version of the paper's finding: two DOM-ANDs fed related
  // inputs and the *same* fresh mask; a probe combining their registered
  // outputs observes mask-cancelled data.
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  std::vector<SignalId> y = {nl.add_input(InputRole::kShare, "y0", {1, 0, 0}),
                             nl.add_input(InputRole::kShare, "y1", {1, 1, 0})};
  const SignalId r = nl.add_input(InputRole::kRandom, "r");
  const auto g1 = gadgets::build_dom_and(nl, x, y, {r}, "g1");
  const auto g2 = gadgets::build_dom_and(nl, y, x, {r}, "g2");
  // Downstream gate whose glitch-extended probe sees both gadgets' registers.
  nl.and_(g1.out[0], g2.out[0]);
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_TRUE(report.any_leak);
}

// --- exact verifier vs the paper's claims (glitch model) --------------------------

struct PlanLeak {
  const char* plan;
  bool leaks;
};

// Prints the parameter by value, so ctest test names do not carry the
// `plan` pointer (which moves on every run under address-space
// randomization).
void PrintTo(const PlanLeak& v, std::ostream* os) {
  *os << "{" << v.plan << ", " << (v.leaks ? "leaks" : "secure") << "}";
}

class KroneckerExact : public ::testing::TestWithParam<PlanLeak> {
 protected:
  static RandomnessPlan plan_by_name(const std::string& name) {
    if (name == "full") return RandomnessPlan::kron1_full_fresh();
    if (name == "eq6") return RandomnessPlan::kron1_demeyer_eq6();
    if (name == "eq9") return RandomnessPlan::kron1_proposed_eq9();
    if (name == "single") return RandomnessPlan::kron1_single_reuse_r1r3();
    if (name == "pair") return RandomnessPlan::kron1_pair_reuse();
    if (name == "r5r6") return RandomnessPlan::kron1_r5_equals_r6();
    if (name == "trans1") return RandomnessPlan::kron1_transition_secure(1);
    if (name == "trans4") return RandomnessPlan::kron1_transition_secure(4);
    throw common::Error("unknown plan in test");
  }
};

TEST_P(KroneckerExact, MatchesPaperVerdict) {
  const auto [plan_name, expect_leak] = GetParam();
  Netlist nl;
  std::vector<Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares, plan_by_name(plan_name));
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_FALSE(report.any_skipped);
  EXPECT_EQ(report.any_leak, expect_leak) << plan_name << "\n"
                                          << to_string(report);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, KroneckerExact,
    ::testing::Values(PlanLeak{"full", false},   // 7 fresh masks: secure
                      PlanLeak{"eq6", true},     // CHES 2018 Eq.(6): leaks
                      PlanLeak{"single", true},  // r1 = r3 alone: leaks
                      PlanLeak{"pair", true},    // r1=r3, r2=r4: leaks
                      PlanLeak{"eq9", false},    // repaired Eq.(9): secure
                      PlanLeak{"r5r6", true},    // r5 = r6: leaks
                      PlanLeak{"trans1", false},
                      PlanLeak{"trans4", false}),
    [](const auto& info) { return std::string(info.param.plan); });

TEST(Exact, Eq6LeakLocalizesToG7) {
  // The paper's Fig. 3: the leaking probes sit inside gate G7, observing the
  // registered inner-domain products of G5/G6.
  Netlist nl;
  std::vector<Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares, RandomnessPlan::kron1_demeyer_eq6());
  const ExactReport report = verify_first_order_glitch(nl);
  ASSERT_TRUE(report.any_leak);
  for (const ExactProbeResult* leak : report.leaking())
    EXPECT_NE(leak->name.find("G7"), std::string::npos)
        << "leak outside G7: " << leak->name;
}

TEST(Exact, SingleReuseWitnessInvolvesZeroUnmaskedBits) {
  // Section III, Eq. (8): with r1 = r3 the observation distribution differs
  // between secrets with x1 = x5 = 0 and secrets with x1 = 1 (x5 = 0).
  // Verify directly on the conditional distributions of a leaking probe.
  Netlist nl;
  std::vector<Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares,
                           RandomnessPlan::kron1_single_reuse_r1r3());
  const ExactReport report = verify_first_order_glitch(nl);
  ASSERT_TRUE(report.any_leak);
  const ExactProbeResult* leak = report.leaking().front();

  const ProbeDistribution dist =
      ProbeDistributionEngine(nl).distribution(leak->probe);
  ASSERT_TRUE(dist.feasible);
  ASSERT_GT(dist.rows(), 0x01u);
  // The Kronecker input is complemented, so the paper's "x1 = x5 = 0"
  // condition corresponds to complemented bits 1 and 5 both 1, i.e. secret
  // bits x1 = x5 = 0. Check: dist is constant within {x : x1=x5=0} but
  // differs from some secret with x1 = 1.
  const auto base = dist.row(0x00);  // x = 0: x1 = x5 = 0
  const auto same_as_base = [&](std::uint64_t v) {
    const auto row = dist.row(v);
    return std::equal(row.begin(), row.end(), base.begin());
  };
  EXPECT_TRUE(same_as_base(0x01));  // x = 1: still x1 = x5 = 0
  bool differs_for_x1_set = false;
  for (std::uint64_t secret = 0; secret < dist.rows(); ++secret)
    if ((secret & 0b100010) && !same_as_base(secret)) differs_for_x1_set = true;
  EXPECT_TRUE(differs_for_x1_set);
}

TEST(Exact, PairReuseIsMoreSevereThanSingle) {
  // "Considering other optimizations such as r2 = r4 could further
  // exacerbate the vulnerabilities": compare worst-case TV distances.
  auto severity = [](const RandomnessPlan& plan) {
    Netlist nl;
    std::vector<Bus> shares = {
        gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
        gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
    gadgets::build_kronecker(nl, shares, plan);
    const ExactReport report = verify_first_order_glitch(nl);
    double worst = 0.0;
    for (const auto* leak : report.leaking())
      worst = std::max(worst, leak->max_tv_distance);
    return worst;
  };
  const double single = severity(RandomnessPlan::kron1_single_reuse_r1r3());
  const double pair = severity(RandomnessPlan::kron1_pair_reuse());
  EXPECT_GT(single, 0.0);
  EXPECT_GT(pair, single);
}

TEST(Exact, SecondOrderKroneckerFullFreshHasNoFirstOrderLeak) {
  Netlist nl;
  std::vector<Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b2_", 0, 2)};
  gadgets::build_kronecker(nl, shares, RandomnessPlan::kron2_full_fresh());
  const ExactReport report = verify_first_order_glitch(nl);
  EXPECT_FALSE(report.any_leak) << to_string(report);
}

TEST(Exact, DeterministicAcrossThreadCounts) {
  // Per-probe enumeration is parallelized; probe order and every per-probe
  // result must be identical for threads in {1, 2, 8}.
  Netlist nl;
  std::vector<Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares, RandomnessPlan::kron1_demeyer_eq6());

  ExactOptions options;
  options.threads = 1;
  const ExactReport base = verify_first_order_glitch(nl, options);
  ASSERT_TRUE(base.any_leak);
  for (unsigned threads : {2u, 8u}) {
    options.threads = threads;
    const ExactReport report = verify_first_order_glitch(nl, options);
    EXPECT_EQ(report.any_leak, base.any_leak);
    EXPECT_EQ(report.probes_leaking, base.probes_leaking);
    ASSERT_EQ(report.probes.size(), base.probes.size());
    for (std::size_t i = 0; i < base.probes.size(); ++i) {
      EXPECT_EQ(report.probes[i].name, base.probes[i].name);
      EXPECT_EQ(report.probes[i].leaks, base.probes[i].leaks);
      EXPECT_EQ(report.probes[i].max_tv_distance,
                base.probes[i].max_tv_distance);
    }
  }
}

TEST(Exact, ReportRendering) {
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  nl.name_signal(nl.xor_(s0, s1), "recombined");
  const ExactReport report = verify_first_order_glitch(nl);
  const std::string text = to_string(report);
  EXPECT_NE(text.find("LEAK"), std::string::npos);
  EXPECT_NE(text.find("recombined"), std::string::npos);
}

}  // namespace
}  // namespace sca::verif
