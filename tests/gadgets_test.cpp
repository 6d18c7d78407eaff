#include <gtest/gtest.h>

#include <array>
#include <ostream>

#include "src/aes/sbox.hpp"
#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/conversions.hpp"
#include "src/gadgets/dom.hpp"
#include "src/gadgets/gf_circuits.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/gadgets/sharing.hpp"
#include "src/gf/gf256.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace sca::gadgets {
namespace {

using netlist::InputRole;
using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

// --- bus helpers -----------------------------------------------------------------

TEST(Bus, XorConstInvertsSelectedBits) {
  Netlist nl;
  const Bus in = make_input_bus(nl, 8, InputRole::kControl, "x");
  const Bus out = xor_const(nl, in, 0x63);
  sim::Simulator simulator(nl);
  set_bus_all_lanes(simulator, in, 0x00);
  simulator.settle();
  EXPECT_EQ(read_bus_lane(simulator, out, 0), 0x63u);
  set_bus_all_lanes(simulator, in, 0xFF);
  simulator.settle();
  EXPECT_EQ(read_bus_lane(simulator, out, 0), 0xFFu ^ 0x63u);
}

TEST(Bus, ApplyMatrixMatchesValueLevel) {
  common::Xoshiro256 rng(17);
  gf::BitMatrix m(8, 8);
  for (std::size_t r = 0; r < 8; ++r) m.set_row(r, rng.byte());
  Netlist nl;
  const Bus in = make_input_bus(nl, 8, InputRole::kControl, "x");
  const Bus out = apply_matrix(nl, m, in);
  sim::Simulator simulator(nl);
  for (unsigned x = 0; x < 256; x += 5) {
    set_bus_all_lanes(simulator, in, x);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, out, 0), m.apply(x)) << "x=" << x;
  }
}

TEST(Bus, MuxBusSelects) {
  Netlist nl;
  const SignalId sel = nl.add_input(InputRole::kControl, "sel");
  const Bus a = make_input_bus(nl, 4, InputRole::kControl, "a");
  const Bus b = make_input_bus(nl, 4, InputRole::kControl, "b");
  const Bus m = mux_bus(nl, sel, a, b);
  sim::Simulator simulator(nl);
  set_bus_all_lanes(simulator, a, 0x5);
  set_bus_all_lanes(simulator, b, 0xA);
  simulator.set_input_all_lanes(sel, false);
  simulator.settle();
  EXPECT_EQ(read_bus_lane(simulator, m, 0), 0x5u);
  simulator.set_input_all_lanes(sel, true);
  simulator.settle();
  EXPECT_EQ(read_bus_lane(simulator, m, 0), 0xAu);
}

TEST(Bus, EqConstAndIncrement) {
  Netlist nl;
  const Bus c = make_input_bus(nl, 4, InputRole::kControl, "c");
  const SignalId eq11 = eq_const(nl, c, 11);
  const Bus inc = increment_bus(nl, c);
  sim::Simulator simulator(nl);
  for (unsigned v = 0; v < 16; ++v) {
    set_bus_all_lanes(simulator, c, v);
    simulator.settle();
    EXPECT_EQ(simulator.value_in_lane(eq11, 0), v == 11);
    EXPECT_EQ(read_bus_lane(simulator, inc, 0), (v + 1) % 16) << v;
  }
}

TEST(Bus, XorTreeParity) {
  Netlist nl;
  const Bus in = make_input_bus(nl, 7, InputRole::kControl, "x");
  const SignalId p = xor_tree(nl, std::vector<SignalId>(in.begin(), in.end()));
  sim::Simulator simulator(nl);
  for (unsigned v = 0; v < 128; v += 3) {
    set_bus_all_lanes(simulator, in, v);
    simulator.settle();
    EXPECT_EQ(simulator.value_in_lane(p, 0), common::parity64(v) != 0);
  }
}

TEST(Bus, PerLaneDriving) {
  Netlist nl;
  const Bus in = make_input_bus(nl, 8, InputRole::kControl, "x");
  sim::Simulator simulator(nl);
  std::array<std::uint8_t, 64> values;
  for (unsigned lane = 0; lane < 64; ++lane)
    values[lane] = static_cast<std::uint8_t>(3 * lane + 1);
  set_bus_per_lane(simulator, in, values);
  simulator.settle();
  for (unsigned lane = 0; lane < 64; ++lane)
    EXPECT_EQ(read_bus_lane(simulator, in, lane), values[lane]);
}

// --- value-level sharing -----------------------------------------------------------

TEST(Sharing, BooleanRoundTrip) {
  common::Xoshiro256 rng(1);
  for (std::size_t shares = 1; shares <= 5; ++shares)
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint8_t x = rng.byte();
      const auto sh = boolean_share(x, shares, rng);
      EXPECT_EQ(sh.size(), shares);
      EXPECT_EQ(boolean_unshare(sh), x);
    }
}

TEST(Sharing, MultiplicativeRoundTrip) {
  common::Xoshiro256 rng(2);
  for (std::size_t shares = 1; shares <= 4; ++shares)
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint8_t x = rng.byte();
      const auto sh = multiplicative_share(x, shares, rng);
      EXPECT_EQ(multiplicative_unshare(sh), x);
      for (std::size_t i = 0; i + 1 < sh.size(); ++i) EXPECT_NE(sh[i], 0);
    }
}

TEST(Sharing, ZeroValueProblemIsVisible) {
  // The known flaw of plain multiplicative masking: for x = 0 the last share
  // is always 0 — unmasked.
  common::Xoshiro256 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sh = multiplicative_share(0, 3, rng);
    EXPECT_EQ(sh.back(), 0);
  }
}

// --- DOM-AND ------------------------------------------------------------------------

TEST(DomAnd, MaskIndexing) {
  EXPECT_EQ(dom_mask_count(2), 1u);
  EXPECT_EQ(dom_mask_count(3), 3u);
  EXPECT_EQ(dom_mask_count(4), 6u);
  EXPECT_EQ(dom_mask_index(0, 1, 3), 0u);
  EXPECT_EQ(dom_mask_index(0, 2, 3), 1u);
  EXPECT_EQ(dom_mask_index(1, 2, 3), 2u);
}

class DomAndShares : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DomAndShares, ComputesSharedAnd) {
  const std::size_t s = GetParam();
  Netlist nl;
  std::vector<SignalId> x, y, masks;
  for (std::size_t i = 0; i < s; ++i) {
    x.push_back(nl.add_input(InputRole::kShare, "x", {0, unsigned(i), 0}));
    y.push_back(nl.add_input(InputRole::kShare, "y", {1, unsigned(i), 0}));
  }
  for (std::size_t i = 0; i < dom_mask_count(s); ++i)
    masks.push_back(nl.add_input(InputRole::kRandom, "r"));
  const DomAnd gadget = build_dom_and(nl, x, y, masks, "dom");
  EXPECT_EQ(gadget.out.size(), s);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(7);
  for (unsigned xv = 0; xv < 2; ++xv)
    for (unsigned yv = 0; yv < 2; ++yv)
      for (int trial = 0; trial < 20; ++trial) {
        // Fresh bit-sharing of xv/yv and fresh masks.
        const auto xs = boolean_share(static_cast<std::uint8_t>(xv), s, rng);
        const auto ys = boolean_share(static_cast<std::uint8_t>(yv), s, rng);
        for (std::size_t i = 0; i < s; ++i) {
          simulator.set_input_all_lanes(x[i], xs[i] & 1);
          simulator.set_input_all_lanes(y[i], ys[i] & 1);
        }
        for (SignalId m : masks) simulator.set_input_all_lanes(m, rng.bit());
        // Both inner and cross products are registered: one clock of latency,
        // inputs held stable across it.
        simulator.step();
        simulator.settle();
        unsigned z = 0;
        for (std::size_t i = 0; i < s; ++i)
          z ^= simulator.value_in_lane(gadget.out[i], 0);
        EXPECT_EQ(z, xv & yv) << "s=" << s << " x=" << xv << " y=" << yv;
      }
}

INSTANTIATE_TEST_SUITE_P(ShareSweep, DomAndShares,
                         ::testing::Values(2, 3, 4, 5));

TEST(DomAnd, StructureMatchesFig1c) {
  // First-order DOM-AND with registered inner domain: 4 AND, 1 XOR for the
  // mask, 4 registers, 2 output XORs -> per Fig. 1c.
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  std::vector<SignalId> y = {nl.add_input(InputRole::kShare, "y0", {1, 0, 0}),
                             nl.add_input(InputRole::kShare, "y1", {1, 1, 0})};
  std::vector<SignalId> r = {nl.add_input(InputRole::kRandom, "r")};
  build_dom_and(nl, x, y, r, "g");
  EXPECT_EQ(nl.count(GateKind::kAnd), 4u);
  EXPECT_EQ(nl.count(GateKind::kReg), 4u);
  EXPECT_EQ(nl.count(GateKind::kXor), 4u);  // 2 mask XORs + 2 output XORs
}

TEST(DomAnd, RejectsWrongMaskCount) {
  Netlist nl;
  std::vector<SignalId> x = {nl.add_input(InputRole::kShare, "x0", {0, 0, 0}),
                             nl.add_input(InputRole::kShare, "x1", {0, 1, 0})};
  EXPECT_THROW(build_dom_and(nl, x, x, {}, "g"), common::Error);
}

// --- randomness plans ----------------------------------------------------------------

TEST(RandomnessPlan, FreshCounts) {
  EXPECT_EQ(RandomnessPlan::kron1_full_fresh().fresh_count(), 7u);
  EXPECT_EQ(RandomnessPlan::kron1_demeyer_eq6().fresh_count(), 3u);
  EXPECT_EQ(RandomnessPlan::kron1_single_reuse_r1r3().fresh_count(), 6u);
  EXPECT_EQ(RandomnessPlan::kron1_pair_reuse().fresh_count(), 5u);
  EXPECT_EQ(RandomnessPlan::kron1_proposed_eq9().fresh_count(), 4u);
  EXPECT_EQ(RandomnessPlan::kron1_r5_equals_r6().fresh_count(), 6u);
  for (int i = 1; i <= 4; ++i)
    EXPECT_EQ(RandomnessPlan::kron1_transition_secure(i).fresh_count(), 6u);
  EXPECT_EQ(RandomnessPlan::kron2_full_fresh().fresh_count(), 21u);
  EXPECT_EQ(RandomnessPlan::kron2_naive13().fresh_count(), 13u);
}

TEST(RandomnessPlan, SlotCounts) {
  EXPECT_EQ(RandomnessPlan::kron1_full_fresh().slot_count(), 7u);
  EXPECT_EQ(RandomnessPlan::kron2_full_fresh().slot_count(), 21u);
  EXPECT_EQ(RandomnessPlan::kron2_naive13().slot_count(), 21u);
}

TEST(RandomnessPlan, Eq6MatchesThePaper) {
  // r1 = r3, r2 = r4, r7 = r1, r6 = [r5 ^ r2].
  const RandomnessPlan plan = RandomnessPlan::kron1_demeyer_eq6();
  const auto& slots = plan.slots();
  EXPECT_EQ(slots[0], slots[2]);  // r1 == r3
  EXPECT_EQ(slots[1], slots[3]);  // r2 == r4
  EXPECT_EQ(slots[6], slots[0]);  // r7 == r1
  EXPECT_TRUE(slots[5].registered);
  EXPECT_EQ(slots[5].fresh_mask, slots[4].fresh_mask ^ slots[1].fresh_mask);
}

TEST(RandomnessPlan, Eq9MatchesThePaper) {
  const RandomnessPlan plan = RandomnessPlan::kron1_proposed_eq9();
  const auto& slots = plan.slots();
  // r1..r4 pairwise distinct and fresh.
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      EXPECT_NE(slots[i].fresh_mask, slots[j].fresh_mask);
  EXPECT_EQ(slots[4], slots[3]);  // r5 == r4
  EXPECT_EQ(slots[5], slots[1]);  // r6 == r2
  EXPECT_EQ(slots[6], slots[2]);  // r7 == r3
}

TEST(RandomnessPlan, DescribeIsReadable) {
  EXPECT_EQ(RandomnessPlan::kron1_proposed_eq9().describe(),
            "r1=f0 r2=f1 r3=f2 r4=f3 r5=f3 r6=f1 r7=f2");
  EXPECT_NE(RandomnessPlan::kron1_demeyer_eq6().describe().find("[f1^f2]"),
            std::string::npos);
}

TEST(RandomnessPlan, MaterializeSemantics) {
  const RandomnessPlan plan = RandomnessPlan::kron1_demeyer_eq6();
  Netlist nl;
  std::vector<SignalId> fresh;
  for (std::size_t k = 0; k < plan.fresh_count(); ++k)
    fresh.push_back(nl.add_input(InputRole::kRandom, "f"));
  const auto slots = plan.materialize(nl, fresh);
  ASSERT_EQ(slots.size(), 7u);
  // Direct slots pass the fresh signal through.
  EXPECT_EQ(slots[0], fresh[0]);
  EXPECT_EQ(slots[2], fresh[0]);
  EXPECT_EQ(slots[4], fresh[2]);
  // The combined slot r6 = [f2 ^ f1] is a register fed by an XOR.
  EXPECT_EQ(nl.kind(slots[5]), GateKind::kReg);
  sim::Simulator simulator(nl);
  simulator.set_input_all_lanes(fresh[1], true);
  simulator.set_input_all_lanes(fresh[2], false);
  simulator.step();
  simulator.settle();
  EXPECT_TRUE(simulator.value_in_lane(slots[5], 0));
}

TEST(RandomnessPlan, RejectsBadSlots) {
  EXPECT_THROW(RandomnessPlan("bad", 2, {MaskSlotExpr{0, false}}),
               common::Error);
  EXPECT_THROW(RandomnessPlan("bad", 2, {MaskSlotExpr{0b100, false}}),
               common::Error);
  EXPECT_THROW(RandomnessPlan::kron1_transition_secure(5), common::Error);
}


TEST(RandomnessPlan, ParseRoundTripsAllNamedPlans) {
  for (const RandomnessPlan& plan :
       {RandomnessPlan::kron1_full_fresh(), RandomnessPlan::kron1_demeyer_eq6(),
        RandomnessPlan::kron1_proposed_eq9(), RandomnessPlan::kron1_pair_reuse(),
        RandomnessPlan::kron1_transition_secure(2),
        RandomnessPlan::kron2_full_fresh(), RandomnessPlan::kron2_reduced(),
        RandomnessPlan::kron2_reduced_leaky(),
        RandomnessPlan::kron2_naive13()}) {
    const RandomnessPlan back = RandomnessPlan::parse("rt", plan.describe());
    EXPECT_EQ(back.slots(), plan.slots()) << plan.name();
    EXPECT_EQ(back.fresh_count(), plan.fresh_count()) << plan.name();
    EXPECT_EQ(back.describe(), plan.describe()) << plan.name();
  }
}

TEST(RandomnessPlan, ParseRejectsMalformedInput) {
  EXPECT_THROW(RandomnessPlan::parse("x", ""), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r2=f0"), common::Error);      // order
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=g0"), common::Error);      // not fN
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=[f0"), common::Error);     // bracket
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f0^"), common::Error);     // dangling
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f99"), common::Error);     // range
  EXPECT_THROW(RandomnessPlan::parse("x", "banana"), common::Error);
}

TEST(RandomnessPlan, ParseRejectsHardenedCorners) {
  // Duplicate slot (would silently shadow the earlier definition).
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f0 r1=f1"), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f0 r2=f1 r2=f2"),
               common::Error);
  // Empty expressions in every spelling.
  EXPECT_THROW(RandomnessPlan::parse("x", "r1="), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=[]"), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f"), common::Error);
  // Out-of-range indices, including ones large enough to wrap a 32-bit
  // accumulator back into range (f4294967296 must not alias f0).
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f64"), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f4294967296"), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f18446744073709551616"),
               common::Error);
  // A repeated fresh bit inside one slot XORs to constant zero — not a mask.
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=f0^f0"), common::Error);
  EXPECT_THROW(RandomnessPlan::parse("x", "r1=[f1^f2^f1]"), common::Error);
  // The f63 boundary itself is legal.
  EXPECT_EQ(RandomnessPlan::parse("x", "r1=f63").fresh_count(), 64u);
}

TEST(RandomnessPlan, ParseAcceptsRegisteredCombos) {
  const RandomnessPlan plan = RandomnessPlan::parse("x", "r1=f0 r2=[f0^f1]");
  EXPECT_EQ(plan.fresh_count(), 2u);
  EXPECT_FALSE(plan.slots()[0].registered);
  EXPECT_TRUE(plan.slots()[1].registered);
  EXPECT_EQ(plan.slots()[1].fresh_mask, 0b11u);
}

// --- Kronecker delta ---------------------------------------------------------------

class KroneckerPlans : public ::testing::TestWithParam<const char*> {
 protected:
  static RandomnessPlan plan_by_name(const std::string& name) {
    if (name == "full") return RandomnessPlan::kron1_full_fresh();
    if (name == "eq6") return RandomnessPlan::kron1_demeyer_eq6();
    if (name == "eq9") return RandomnessPlan::kron1_proposed_eq9();
    if (name == "single") return RandomnessPlan::kron1_single_reuse_r1r3();
    if (name == "pair") return RandomnessPlan::kron1_pair_reuse();
    if (name == "r5r6") return RandomnessPlan::kron1_r5_equals_r6();
    if (name == "trans1") return RandomnessPlan::kron1_transition_secure(1);
    throw common::Error("unknown plan in test");
  }
};

TEST_P(KroneckerPlans, ComputesDeltaForEveryInput) {
  // Whatever the randomness plan (secure or broken), the *function* is the
  // same: z = 1 iff X == 0. Exhaust all 256 inputs with random sharings.
  const RandomnessPlan plan = plan_by_name(GetParam());
  Netlist nl;
  std::vector<Bus> shares = {
      make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  const KroneckerDelta kron = build_kronecker(nl, shares, plan);
  nl.validate();

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(11);
  for (unsigned x = 0; x < 256; ++x) {
    const auto sh = boolean_share(static_cast<std::uint8_t>(x), 2, rng);
    set_bus_all_lanes(simulator, shares[0], sh[0]);
    set_bus_all_lanes(simulator, shares[1], sh[1]);
    // Hold input stable for the 3-cycle latency, refreshing masks per cycle.
    for (std::size_t c = 0; c < kron.latency; ++c) {
      for (SignalId f : kron.fresh) simulator.set_input_all_lanes(f, rng.bit());
      simulator.step();
    }
    simulator.settle();
    const unsigned z = simulator.value_in_lane(kron.z[0], 0) ^
                       simulator.value_in_lane(kron.z[1], 0);
    EXPECT_EQ(z, x == 0 ? 1u : 0u) << "x=" << x << " plan=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(PlanSweep, KroneckerPlans,
                         ::testing::Values("full", "eq6", "eq9", "single",
                                           "pair", "r5r6", "trans1"));

TEST(Kronecker, SecondOrderComputesDelta) {
  for (const RandomnessPlan& plan :
       {RandomnessPlan::kron2_full_fresh(), RandomnessPlan::kron2_naive13()}) {
    Netlist nl;
    std::vector<Bus> shares = {
        make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
        make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1),
        make_input_bus(nl, 8, InputRole::kShare, "b2_", 0, 2)};
    const KroneckerDelta kron = build_kronecker(nl, shares, plan);
    nl.validate();

    sim::Simulator simulator(nl);
    common::Xoshiro256 rng(13);
    for (unsigned x = 0; x < 256; x += 3) {
      const auto sh = boolean_share(static_cast<std::uint8_t>(x), 3, rng);
      for (std::size_t i = 0; i < 3; ++i)
        set_bus_all_lanes(simulator, shares[i], sh[i]);
      for (std::size_t c = 0; c < kron.latency; ++c) {
        for (SignalId f : kron.fresh) simulator.set_input_all_lanes(f, rng.bit());
        simulator.step();
      }
      simulator.settle();
      unsigned z = 0;
      for (std::size_t i = 0; i < 3; ++i)
        z ^= simulator.value_in_lane(kron.z[i], 0);
      EXPECT_EQ(z, x == 0 ? 1u : 0u) << "x=" << x << " plan=" << plan.name();
    }
  }
}

TEST(Kronecker, StructureMatchesFig1b) {
  Netlist nl;
  std::vector<Bus> shares = {
      make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  const KroneckerDelta kron =
      build_kronecker(nl, shares, RandomnessPlan::kron1_full_fresh());
  EXPECT_EQ(kron.gates.size(), 7u);      // G1..G7
  EXPECT_EQ(kron.latency, 3u);           // three DOM layers
  EXPECT_EQ(nl.count(GateKind::kNot), 8u);   // one complement per input bit
  EXPECT_EQ(nl.count(GateKind::kAnd), 28u);  // 7 gates x 4 ANDs
  EXPECT_EQ(nl.count(GateKind::kReg), 28u);  // 7 gates x 4 registers
  EXPECT_EQ(nl.random_input_count(), 7u);
}

// --- GF circuits ---------------------------------------------------------------------

TEST(GfCircuits, MultiplierMatchesReference) {
  Netlist nl;
  const Bus a = make_input_bus(nl, 8, InputRole::kControl, "a");
  const Bus b = make_input_bus(nl, 8, InputRole::kControl, "b");
  const Bus p = build_gf256_mul(nl, a, b);
  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(19);
  // Exhaustive over a, random over b, plus the tricky fixed points.
  for (unsigned av = 0; av < 256; ++av) {
    const std::uint8_t bv = rng.byte();
    set_bus_all_lanes(simulator, a, av);
    set_bus_all_lanes(simulator, b, bv);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, p, 0),
              gf::gf256_mul(static_cast<std::uint8_t>(av), bv))
        << "a=" << av << " b=" << int(bv);
  }
  for (auto [av, bv] : {std::pair<unsigned, unsigned>{0, 0}, {1, 1}, {0xFF, 0xFF},
                        {0x80, 0x02}, {0x53, 0xCA}}) {
    set_bus_all_lanes(simulator, a, av);
    set_bus_all_lanes(simulator, b, bv);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, p, 0),
              gf::gf256_mul(static_cast<std::uint8_t>(av),
                            static_cast<std::uint8_t>(bv)));
  }
}

TEST(GfCircuits, InverterExhaustive) {
  Netlist nl;
  const Bus a = make_input_bus(nl, 8, InputRole::kControl, "a");
  const Bus inv = build_gf256_inv(nl, a);
  sim::Simulator simulator(nl);
  for (unsigned av = 0; av < 256; ++av) {
    set_bus_all_lanes(simulator, a, av);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, inv, 0),
              gf::gf256_inv(static_cast<std::uint8_t>(av)))
        << "a=" << av;
  }
}

TEST(GfCircuits, InverterIsCombinational) {
  Netlist nl;
  const Bus a = make_input_bus(nl, 8, InputRole::kControl, "a");
  build_gf256_inv(nl, a);
  EXPECT_EQ(nl.count(GateKind::kReg), 0u);
}

TEST(GfCircuits, AffineExhaustive) {
  Netlist nl;
  const Bus a = make_input_bus(nl, 8, InputRole::kControl, "a");
  const Bus with_c = build_sbox_affine(nl, a, true);
  const Bus without_c = build_sbox_affine(nl, a, false);
  sim::Simulator simulator(nl);
  for (unsigned av = 0; av < 256; ++av) {
    set_bus_all_lanes(simulator, a, av);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, with_c, 0),
              aes::sbox_affine(static_cast<std::uint8_t>(av)));
    EXPECT_EQ(read_bus_lane(simulator, without_c, 0),
              aes::sbox_affine(static_cast<std::uint8_t>(av)) ^ 0x63u);
  }
}

TEST(GfCircuits, SboxFromPieces) {
  // inv + affine chained = the AES Sbox, for every input.
  Netlist nl;
  const Bus a = make_input_bus(nl, 8, InputRole::kControl, "a");
  const Bus s = build_sbox_affine(nl, build_gf256_inv(nl, a), true);
  sim::Simulator simulator(nl);
  for (unsigned av = 0; av < 256; ++av) {
    set_bus_all_lanes(simulator, a, av);
    simulator.settle();
    EXPECT_EQ(read_bus_lane(simulator, s, 0),
              aes::sbox(static_cast<std::uint8_t>(av)));
  }
}

// --- conversions ----------------------------------------------------------------------

TEST(Conversions, B2MRecombines) {
  Netlist nl;
  const Bus b0 = make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0);
  const Bus b1 = make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1);
  const Bus r = make_input_bus(nl, 8, InputRole::kRandom, "R");
  const B2MResult b2m = build_b2m(nl, b0, b1, r);
  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint8_t x = rng.byte();
    const auto sh = boolean_share(x, 2, rng);
    const std::uint8_t rv = rng.nonzero_byte();
    set_bus_all_lanes(simulator, b0, sh[0]);
    set_bus_all_lanes(simulator, b1, sh[1]);
    set_bus_all_lanes(simulator, r, rv);
    simulator.step();
    simulator.settle();
    const std::uint8_t p0 =
        static_cast<std::uint8_t>(read_bus_lane(simulator, b2m.p0, 0));
    const std::uint8_t p1 =
        static_cast<std::uint8_t>(read_bus_lane(simulator, b2m.p1, 0));
    EXPECT_EQ(p0, rv);
    // X = inv(P0) * P1.
    EXPECT_EQ(gf::gf256_mul(gf::gf256_inv(p0), p1), x) << "x=" << int(x);
  }
}

TEST(Conversions, M2BRecombines) {
  Netlist nl;
  const Bus q0 = make_input_bus(nl, 8, InputRole::kControl, "q0_");
  const Bus q1 = make_input_bus(nl, 8, InputRole::kControl, "q1_");
  const Bus rp = make_input_bus(nl, 8, InputRole::kRandom, "Rp");
  const M2BResult m2b = build_m2b(nl, q0, q1, rp);
  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint8_t q0v = rng.byte(), q1v = rng.byte(), rv = rng.byte();
    set_bus_all_lanes(simulator, q0, q0v);
    set_bus_all_lanes(simulator, q1, q1v);
    set_bus_all_lanes(simulator, rp, rv);
    simulator.step();
    simulator.settle();
    const std::uint8_t out =
        static_cast<std::uint8_t>(read_bus_lane(simulator, m2b.b0, 0) ^
                                  read_bus_lane(simulator, m2b.b1, 0));
    EXPECT_EQ(out, gf::gf256_mul(q0v, q1v));
  }
}

// --- masked Sbox ------------------------------------------------------------------------

struct SboxConfig {
  const char* name;
  bool kronecker;
};

// Prints the parameter by value (its name is already the test-name
// suffix). gtest's default byte dump would show the `name` pointer and the
// padding, so ctest test names would depend on the build and the run.
void PrintTo(const SboxConfig& c, std::ostream* os) {
  *os << (c.kronecker ? "{kronecker}" : "{no kronecker}");
}

class MaskedSboxTest : public ::testing::TestWithParam<SboxConfig> {};

TEST_P(MaskedSboxTest, MatchesReferenceSboxPipelined) {
  const SboxConfig config = GetParam();
  MaskedSboxOptions opts;
  opts.include_kronecker = config.kronecker;
  opts.kron_plan = RandomnessPlan::kron1_demeyer_eq6();

  Netlist nl;
  const MaskedSbox sbox = build_masked_sbox(nl, opts);
  nl.validate();

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(31);

  // Stream a new input every cycle (true pipelining); expect each output
  // `latency` cycles later. Without the Kronecker delta, input 0 is not
  // supported — skip it there.
  std::vector<std::uint8_t> inputs;
  for (unsigned x = config.kronecker ? 0 : 1; x < 256; ++x)
    inputs.push_back(static_cast<std::uint8_t>(x));
  // A few repeats with different sharings.
  for (int i = 0; i < 64; ++i)
    inputs.push_back(config.kronecker ? rng.byte() : rng.nonzero_byte());

  const std::size_t latency = sbox.latency;
  for (std::size_t cycle = 0; cycle < inputs.size() + latency; ++cycle) {
    if (cycle < inputs.size()) {
      const auto sh = boolean_share(inputs[cycle], 2, rng);
      set_bus_all_lanes(simulator, sbox.in_shares[0], sh[0]);
      set_bus_all_lanes(simulator, sbox.in_shares[1], sh[1]);
    }
    set_bus_all_lanes(simulator, sbox.rand_b2m, rng.nonzero_byte());
    set_bus_all_lanes(simulator, sbox.rand_m2b, rng.byte());
    for (SignalId f : sbox.kron_fresh) simulator.set_input_all_lanes(f, rng.bit());
    simulator.settle();
    if (cycle >= latency) {
      const std::uint8_t out = static_cast<std::uint8_t>(
          read_bus_lane(simulator, sbox.out_shares[0], 0) ^
          read_bus_lane(simulator, sbox.out_shares[1], 0));
      EXPECT_EQ(out, aes::sbox(inputs[cycle - latency]))
          << "config=" << config.name << " x=" << int(inputs[cycle - latency]);
    }
    simulator.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MaskedSboxTest,
    ::testing::Values(SboxConfig{"with_kronecker", true},
                      SboxConfig{"without_kronecker", false}),
    [](const ::testing::TestParamInfo<SboxConfig>& info) {
      return info.param.name;
    });

TEST(MaskedSbox, LatencyIsFiveWithKroneckerTwoWithout) {
  Netlist nl1;
  MaskedSboxOptions with;
  EXPECT_EQ(build_masked_sbox(nl1, with).latency, 5u);
  Netlist nl2;
  MaskedSboxOptions without;
  without.include_kronecker = false;
  EXPECT_EQ(build_masked_sbox(nl2, without).latency, 2u);
}

TEST(MaskedSbox, EveryPlanStaysFunctionallyCorrect) {
  // Randomness plans change security, never function: spot-check all plans
  // on a handful of inputs including the zero-value corner.
  common::Xoshiro256 rng(37);
  for (const RandomnessPlan& plan :
       {RandomnessPlan::kron1_full_fresh(), RandomnessPlan::kron1_demeyer_eq6(),
        RandomnessPlan::kron1_proposed_eq9(),
        RandomnessPlan::kron1_transition_secure(3)}) {
    Netlist nl;
    MaskedSboxOptions opts;
    opts.kron_plan = plan;
    const MaskedSbox sbox = build_masked_sbox(nl, opts);
    sim::Simulator simulator(nl);
    for (std::uint8_t x : {0x00, 0x01, 0x53, 0xFF, 0x80}) {
      const auto sh = boolean_share(x, 2, rng);
      set_bus_all_lanes(simulator, sbox.in_shares[0], sh[0]);
      set_bus_all_lanes(simulator, sbox.in_shares[1], sh[1]);
      for (std::size_t c = 0; c < sbox.latency; ++c) {
        set_bus_all_lanes(simulator, sbox.rand_b2m, rng.nonzero_byte());
        set_bus_all_lanes(simulator, sbox.rand_m2b, rng.byte());
        for (SignalId f : sbox.kron_fresh)
          simulator.set_input_all_lanes(f, rng.bit());
        simulator.step();
      }
      simulator.settle();
      const std::uint8_t out = static_cast<std::uint8_t>(
          read_bus_lane(simulator, sbox.out_shares[0], 0) ^
          read_bus_lane(simulator, sbox.out_shares[1], 0));
      EXPECT_EQ(out, aes::sbox(x)) << "plan=" << plan.name() << " x=" << int(x);
    }
  }
}

}  // namespace
}  // namespace sca::gadgets
