// Shared helpers for driving masked circuits in functional tests.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/names.hpp"
#include "src/common/rng.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"

namespace sca::testutil {

/// Feeds every kRandom primary input a fresh value for this cycle: uniform
/// bits everywhere, then overwrites the listed buses with uniform *non-zero*
/// bytes (same value in all 64 lanes — functional tests check lane 0).
inline void feed_randomness(sim::Simulator& simulator,
                            const netlist::Netlist& nl,
                            const std::vector<gadgets::Bus>& nonzero_buses,
                            common::Xoshiro256& rng) {
  for (const auto& in : nl.inputs())
    if (in.role == netlist::InputRole::kRandom)
      simulator.set_input(in.signal, rng.bit() ? ~std::uint64_t{0} : 0);
  for (const gadgets::Bus& bus : nonzero_buses)
    gadgets::set_bus_all_lanes(simulator, bus, rng.nonzero_byte());
}

/// The Kronecker delta under `plan` over `share_count` 8-bit input shares
/// ("b0_", "b1_", ...) of secret 0.
inline netlist::Netlist kronecker_netlist(const gadgets::RandomnessPlan& plan,
                                          std::size_t share_count = 2) {
  netlist::Netlist nl;
  std::vector<gadgets::Bus> shares;
  for (std::size_t i = 0; i < share_count; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, netlist::InputRole::kShare, common::make_name("b", i, "_"), 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

}  // namespace sca::testutil
