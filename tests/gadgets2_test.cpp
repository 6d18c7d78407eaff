// Tests for the extended gadget layer: DOM field multipliers, ring refresh,
// the Boolean-masked DOM baseline Sbox, and the second-order multiplicative
// Sbox with its conversions.
#include <gtest/gtest.h>

#include <ostream>

#include "src/aes/sbox.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/core/report.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/conversions2.hpp"
#include "src/gadgets/dom_gf.hpp"
#include "src/gadgets/dom_sbox.hpp"
#include "src/gadgets/masked_sbox2.hpp"
#include "src/gadgets/sharing.hpp"
#include "src/gf/gf256.hpp"
#include "src/gf/tower.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"

namespace sca::gadgets {
namespace {

using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

std::uint8_t field_mul_ref(GfKind kind, std::uint8_t a, std::uint8_t b) {
  switch (kind) {
    case GfKind::kGf4Tower: return gf::gf4_mul(a, b);
    case GfKind::kGf16Tower: return gf::gf16_mul(a, b);
    case GfKind::kGf256Aes: return gf::gf256_mul(a, b);
  }
  throw common::Error("unknown field");
}

struct DomGfCase {
  GfKind kind;
  std::size_t shares;
};

// Prints the parameter by value. gtest's default byte dump would show the
// struct's uninitialized padding, so ctest test names would change between
// runs.
void PrintTo(const DomGfCase& c, std::ostream* os) {
  *os << "{"
      << (c.kind == GfKind::kGf4Tower    ? "gf4"
          : c.kind == GfKind::kGf16Tower ? "gf16"
                                         : "gf256")
      << ", " << c.shares << " shares}";
}

class DomGfMulTest : public ::testing::TestWithParam<DomGfCase> {};

TEST_P(DomGfMulTest, SharesRecombineToProduct) {
  const auto [kind, s] = GetParam();
  const std::size_t width = gf_width(kind);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << width) - 1);

  Netlist nl;
  std::vector<Bus> x, y, masks;
  for (std::size_t i = 0; i < s; ++i) {
    x.push_back(make_input_bus(nl, width, InputRole::kShare, "x", 0,
                               static_cast<std::uint32_t>(i)));
    y.push_back(make_input_bus(nl, width, InputRole::kShare, "y", 1,
                               static_cast<std::uint32_t>(i)));
  }
  for (std::size_t i = 0; i < dom_mask_count(s); ++i)
    masks.push_back(make_input_bus(nl, width, InputRole::kRandom, "m"));
  const DomGfMul gadget = build_dom_gf_mul(nl, kind, x, y, masks, "mul");
  nl.validate();

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint8_t xv = static_cast<std::uint8_t>(rng.byte() & mask);
    const std::uint8_t yv = static_cast<std::uint8_t>(rng.byte() & mask);
    auto xs = boolean_share(xv, s, rng);
    auto ys = boolean_share(yv, s, rng);
    for (std::size_t i = 0; i < s; ++i) {
      set_bus_all_lanes(simulator, x[i], xs[i] & mask);
      set_bus_all_lanes(simulator, y[i], ys[i] & mask);
    }
    for (const Bus& m : masks)
      set_bus_all_lanes(simulator, m, rng.byte() & mask);
    simulator.step();
    simulator.settle();
    std::uint8_t z = 0;
    for (std::size_t i = 0; i < s; ++i)
      z ^= static_cast<std::uint8_t>(read_bus_lane(simulator, gadget.out[i], 0));
    EXPECT_EQ(z, field_mul_ref(kind, xv, yv))
        << "x=" << int(xv) << " y=" << int(yv) << " shares=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FieldsAndOrders, DomGfMulTest,
    ::testing::Values(DomGfCase{GfKind::kGf4Tower, 2},
                      DomGfCase{GfKind::kGf4Tower, 3},
                      DomGfCase{GfKind::kGf16Tower, 2},
                      DomGfCase{GfKind::kGf16Tower, 3},
                      DomGfCase{GfKind::kGf256Aes, 2},
                      DomGfCase{GfKind::kGf256Aes, 3}),
    [](const auto& info) {
      std::string name =
          info.param.kind == GfKind::kGf4Tower
              ? "gf4"
              : info.param.kind == GfKind::kGf16Tower ? "gf16" : "gf256";
      return name + "_s" + std::to_string(info.param.shares);
    });

TEST(DomGfMul, RejectsBadShapes) {
  Netlist nl;
  const Bus a = make_input_bus(nl, 4, InputRole::kShare, "a", 0, 0);
  const Bus b = make_input_bus(nl, 4, InputRole::kShare, "b", 0, 1);
  const Bus m = make_input_bus(nl, 4, InputRole::kRandom, "m");
  // One share only.
  EXPECT_THROW(build_dom_gf_mul(nl, GfKind::kGf16Tower, {a}, {a}, {m}, "g"),
               common::Error);
  // Wrong mask count.
  EXPECT_THROW(
      build_dom_gf_mul(nl, GfKind::kGf16Tower, {a, b}, {a, b}, {m, m}, "g"),
      common::Error);
  // Wrong width.
  const Bus w8 = make_input_bus(nl, 8, InputRole::kShare, "w", 1, 0);
  EXPECT_THROW(
      build_dom_gf_mul(nl, GfKind::kGf16Tower, {w8, w8}, {a, b}, {m}, "g"),
      common::Error);
}

class RingRefreshTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingRefreshTest, PreservesValueAndRandomizes) {
  const std::size_t s = GetParam();
  Netlist nl;
  std::vector<Bus> shares, masks;
  for (std::size_t i = 0; i < s; ++i)
    shares.push_back(make_input_bus(nl, 8, InputRole::kShare, "x", 0,
                                    static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < refresh_mask_count(s); ++i)
    masks.push_back(make_input_bus(nl, 8, InputRole::kRandom, "m"));
  const auto out = build_ring_refresh(nl, shares, masks, "refresh");
  ASSERT_EQ(out.size(), s);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(9);
  bool shares_changed = false;
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint8_t x = rng.byte();
    auto sh = boolean_share(x, s, rng);
    for (std::size_t i = 0; i < s; ++i)
      set_bus_all_lanes(simulator, shares[i], sh[i]);
    for (const Bus& m : masks) set_bus_all_lanes(simulator, m, rng.byte());
    simulator.step();
    simulator.settle();
    std::uint8_t recombined = 0;
    for (std::size_t i = 0; i < s; ++i) {
      const auto v =
          static_cast<std::uint8_t>(read_bus_lane(simulator, out[i], 0));
      recombined ^= v;
      if (v != sh[i]) shares_changed = true;
    }
    EXPECT_EQ(recombined, x);
  }
  EXPECT_TRUE(shares_changed);  // the refresh actually re-randomizes
}

INSTANTIATE_TEST_SUITE_P(Orders, RingRefreshTest, ::testing::Values(2, 3, 4));

// --- DOM baseline Sbox ---------------------------------------------------------

TEST(DomSbox, MaskBitAccounting) {
  EXPECT_EQ(dom_sbox_mask_bits(2), 18u + 4u);
  EXPECT_EQ(dom_sbox_mask_bits(3), 54u + 12u);
}

TEST(DomSbox, MatchesReferenceSboxPipelined) {
  Netlist nl;
  const DomSbox sbox = build_dom_sbox(nl, DomSboxOptions{});
  nl.validate();
  EXPECT_EQ(sbox.latency, 6u);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(3);
  for (unsigned cycle = 0; cycle < 256 + sbox.latency; ++cycle) {
    if (cycle < 256) {
      const auto sh = boolean_share(static_cast<std::uint8_t>(cycle), 2, rng);
      set_bus_all_lanes(simulator, sbox.in_shares[0], sh[0]);
      set_bus_all_lanes(simulator, sbox.in_shares[1], sh[1]);
    }
    for (SignalId m : sbox.masks) simulator.set_input_all_lanes(m, rng.bit());
    simulator.settle();
    if (cycle >= sbox.latency) {
      const std::uint8_t out = static_cast<std::uint8_t>(
          read_bus_lane(simulator, sbox.out_shares[0], 0) ^
          read_bus_lane(simulator, sbox.out_shares[1], 0));
      EXPECT_EQ(out, aes::sbox(static_cast<std::uint8_t>(cycle - sbox.latency)));
    }
    simulator.clock();
  }
}

TEST(DomSbox, ThirdOrderSharingStaysFunctional) {
  Netlist nl;
  DomSboxOptions options;
  options.share_count = 3;
  const DomSbox sbox = build_dom_sbox(nl, options);
  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(4);
  for (std::uint8_t x : {0x00, 0x01, 0x53, 0xFF}) {
    const auto sh = boolean_share(x, 3, rng);
    for (std::size_t i = 0; i < 3; ++i)
      set_bus_all_lanes(simulator, sbox.in_shares[i], sh[i]);
    for (std::size_t c = 0; c < sbox.latency; ++c) {
      for (SignalId m : sbox.masks) simulator.set_input_all_lanes(m, rng.bit());
      simulator.step();
    }
    simulator.settle();
    std::uint8_t out = 0;
    for (std::size_t i = 0; i < 3; ++i)
      out ^= static_cast<std::uint8_t>(
          read_bus_lane(simulator, sbox.out_shares[i], 0));
    EXPECT_EQ(out, aes::sbox(x)) << "x=" << int(x);
  }
}

TEST(DomSbox, FirstOrderCampaignPasses) {
  Netlist nl;
  build_dom_sbox(nl, DomSboxOptions{});
  eval::CampaignOptions options;
  options.simulations = 60000;
  options.fixed_values[0] = 0x00;
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  EXPECT_TRUE(result.pass) << to_string(result);
}

// --- second-order conversions ----------------------------------------------------

TEST(Conversions2, B2M2Recombines) {
  Netlist nl;
  std::vector<Bus> shares;
  for (std::uint32_t i = 0; i < 3; ++i)
    shares.push_back(
        make_input_bus(nl, 8, InputRole::kShare, "b" + std::to_string(i), 0, i));
  const Bus r1 = make_input_bus(nl, 8, InputRole::kRandom, "r1");
  const Bus r2 = make_input_bus(nl, 8, InputRole::kRandom, "r2");
  const B2M2Result conv = build_b2m2(nl, shares, r1, r2);
  EXPECT_EQ(conv.latency, 2u);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint8_t x = rng.byte();
    const auto sh = boolean_share(x, 3, rng);
    for (std::size_t i = 0; i < 3; ++i)
      set_bus_all_lanes(simulator, shares[i], sh[i]);
    const std::uint8_t r1v = rng.nonzero_byte(), r2v = rng.nonzero_byte();
    set_bus_all_lanes(simulator, r1, r1v);
    set_bus_all_lanes(simulator, r2, r2v);
    simulator.step();
    simulator.step();
    simulator.settle();
    const auto p = static_cast<std::uint8_t>(read_bus_lane(simulator, conv.p, 0));
    EXPECT_EQ(static_cast<std::uint8_t>(
                  read_bus_lane(simulator, conv.r1, 0)), r1v);
    EXPECT_EQ(static_cast<std::uint8_t>(
                  read_bus_lane(simulator, conv.r2, 0)), r2v);
    // X = inv(R1) * inv(R2) * P.
    EXPECT_EQ(gf::gf256_mul(gf::gf256_mul(gf::gf256_inv(r1v), gf::gf256_inv(r2v)), p),
              x);
  }
}

TEST(Conversions2, M2B2Recombines) {
  Netlist nl;
  const Bus q0 = make_input_bus(nl, 8, InputRole::kControl, "q0");
  const Bus q1 = make_input_bus(nl, 8, InputRole::kControl, "q1");
  const Bus q2 = make_input_bus(nl, 8, InputRole::kControl, "q2");
  const Bus s1 = make_input_bus(nl, 8, InputRole::kRandom, "s1");
  const Bus s2 = make_input_bus(nl, 8, InputRole::kRandom, "s2");
  const M2B2Result conv = build_m2b2(nl, q0, q1, q2, s1, s2);
  EXPECT_EQ(conv.latency, 3u);
  ASSERT_EQ(conv.b_shares.size(), 3u);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint8_t q0v = rng.byte(), q1v = rng.byte(), q2v = rng.byte();
    set_bus_all_lanes(simulator, q0, q0v);
    set_bus_all_lanes(simulator, q1, q1v);
    set_bus_all_lanes(simulator, q2, q2v);
    set_bus_all_lanes(simulator, s1, rng.byte());
    set_bus_all_lanes(simulator, s2, rng.byte());
    for (int c = 0; c < 3; ++c) simulator.step();
    simulator.settle();
    std::uint8_t x = 0;
    for (const Bus& b : conv.b_shares)
      x ^= static_cast<std::uint8_t>(read_bus_lane(simulator, b, 0));
    EXPECT_EQ(x, gf::gf256_mul(gf::gf256_mul(q0v, q1v), q2v));
  }
}

// --- second-order masked Sbox -------------------------------------------------------

TEST(MaskedSbox2, MatchesReferenceSboxPipelined) {
  Netlist nl;
  const MaskedSbox2 sbox = build_masked_sbox2(nl, MaskedSbox2Options{});
  nl.validate();
  EXPECT_EQ(sbox.latency, 8u);

  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(17);
  for (unsigned cycle = 0; cycle < 256 + sbox.latency; ++cycle) {
    if (cycle < 256) {
      const auto sh = boolean_share(static_cast<std::uint8_t>(cycle), 3, rng);
      for (std::size_t i = 0; i < 3; ++i)
        set_bus_all_lanes(simulator, sbox.in_shares[i], sh[i]);
    }
    set_bus_all_lanes(simulator, sbox.rand_r1, rng.nonzero_byte());
    set_bus_all_lanes(simulator, sbox.rand_r2, rng.nonzero_byte());
    set_bus_all_lanes(simulator, sbox.rand_s1, rng.byte());
    set_bus_all_lanes(simulator, sbox.rand_s2, rng.byte());
    for (SignalId f : sbox.kron_fresh) simulator.set_input_all_lanes(f, rng.bit());
    simulator.settle();
    if (cycle >= sbox.latency) {
      std::uint8_t out = 0;
      for (std::size_t i = 0; i < 3; ++i)
        out ^= static_cast<std::uint8_t>(
            read_bus_lane(simulator, sbox.out_shares[i], 0));
      EXPECT_EQ(out, aes::sbox(static_cast<std::uint8_t>(cycle - sbox.latency)))
          << "x=" << (cycle - sbox.latency);
    }
    simulator.clock();
  }
}

TEST(MaskedSbox2, RejectsFirstOrderPlan) {
  Netlist nl;
  MaskedSbox2Options options;
  options.kron_plan = RandomnessPlan::kron1_full_fresh();
  EXPECT_THROW(build_masked_sbox2(nl, options), common::Error);
}

TEST(MaskedSbox2, FirstOrderCampaignPasses) {
  Netlist nl;
  const MaskedSbox2 sbox = build_masked_sbox2(nl, MaskedSbox2Options{});
  eval::CampaignOptions options;
  options.simulations = 50000;
  options.fixed_values[0] = 0x00;
  options.nonzero_random_buses = {sbox.rand_r1, sbox.rand_r2};
  options.warmup_cycles = 12;
  options.sample_interval = 12;
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  EXPECT_TRUE(result.pass) << to_string(result);
}

}  // namespace
}  // namespace sca::gadgets
