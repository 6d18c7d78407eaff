// Multi-bit bus helpers on top of the single-bit netlist builder.
//
// A Bus is an ordered vector of signal ids, little-endian: bus[i] is bit i of
// the byte/word it represents. All gadget builders (multipliers, inverters,
// conversions, the Sbox) work in terms of buses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/gf/gf2.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"

namespace sca::gadgets {

using Bus = std::vector<netlist::SignalId>;

/// Adds `width` primary inputs named "<name>0".."<name>{width-1}".
/// For kShare inputs, the ShareLabel bit index follows the bus index.
Bus make_input_bus(netlist::Netlist& nl, std::size_t width,
                   netlist::InputRole role, const std::string& name,
                   std::uint32_t secret = 0, std::uint32_t share = 0);

/// Registers every bit of the bus (one pipeline stage).
Bus reg_bus(netlist::Netlist& nl, const Bus& bus);

/// Registers every bit `stages` times.
Bus delay_bus(netlist::Netlist& nl, const Bus& bus, std::size_t stages);

/// Bitwise XOR of two equal-width buses.
Bus xor_bus(netlist::Netlist& nl, const Bus& a, const Bus& b);

/// Bitwise AND of two equal-width buses.
Bus and_bus(netlist::Netlist& nl, const Bus& a, const Bus& b);

/// XOR of the bus with a compile-time constant: bits where the constant is 1
/// become inverters, other bits pass through unchanged.
Bus xor_const(netlist::Netlist& nl, const Bus& a, std::uint64_t constant);

/// Bitwise 2:1 mux: out[i] = sel ? a1[i] : a0[i].
Bus mux_bus(netlist::Netlist& nl, netlist::SignalId sel, const Bus& a0,
            const Bus& a1);

/// Equality comparator against a constant: AND tree over per-bit matches.
netlist::SignalId eq_const(netlist::Netlist& nl, const Bus& a,
                           std::uint64_t value);

/// Ripple increment (a + 1 mod 2^width); the carry out is discarded.
Bus increment_bus(netlist::Netlist& nl, const Bus& a);

/// Balanced XOR tree over the given signals (empty -> constant 0).
netlist::SignalId xor_tree(netlist::Netlist& nl,
                           std::vector<netlist::SignalId> signals);

/// Synthesizes the GF(2)-linear map `m` as per-output-bit XOR trees:
/// out[r] = XOR of in[c] over all c with m(r, c) = 1. Rows with no terms
/// become constant 0.
Bus apply_matrix(netlist::Netlist& nl, const gf::BitMatrix& m, const Bus& in);

/// Attaches debug names "<base>0..n" to the bus bits.
void name_bus(netlist::Netlist& nl, const Bus& bus, const std::string& base);

// --- simulation helpers --------------------------------------------------------

/// Drives an input bus with the same value in all 64 lanes.
void set_bus_all_lanes(sim::Simulator& simulator, const Bus& bus,
                       std::uint64_t value);

/// Drives an input bus with a distinct value per lane (values[lane]).
void set_bus_per_lane(sim::Simulator& simulator, const Bus& bus,
                      std::span<const std::uint8_t, 64> values);

/// Reads the bus value in one lane.
std::uint64_t read_bus_lane(const sim::Simulator& simulator, const Bus& bus,
                            unsigned lane);

}  // namespace sca::gadgets
