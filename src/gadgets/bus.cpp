#include "src/gadgets/bus.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::gadgets {

using netlist::GateKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::ShareLabel;
using netlist::SignalId;

Bus make_input_bus(Netlist& nl, std::size_t width, InputRole role,
                   const std::string& name, std::uint32_t secret,
                   std::uint32_t share) {
  Bus bus;
  bus.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    ShareLabel label;
    label.secret = secret;
    label.share = share;
    label.bit = static_cast<std::uint32_t>(i);
    bus.push_back(nl.add_input(role, common::make_name(name, i), label));
  }
  return bus;
}

Bus reg_bus(Netlist& nl, const Bus& bus) {
  Bus out;
  out.reserve(bus.size());
  for (SignalId s : bus) out.push_back(nl.reg(s));
  return out;
}

Bus delay_bus(Netlist& nl, const Bus& bus, std::size_t stages) {
  Bus out = bus;
  for (std::size_t i = 0; i < stages; ++i) out = reg_bus(nl, out);
  return out;
}

Bus xor_bus(Netlist& nl, const Bus& a, const Bus& b) {
  common::require(a.size() == b.size(), "xor_bus: width mismatch");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(nl.xor_(a[i], b[i]));
  return out;
}

Bus and_bus(Netlist& nl, const Bus& a, const Bus& b) {
  common::require(a.size() == b.size(), "and_bus: width mismatch");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(nl.and_(a[i], b[i]));
  return out;
}

Bus xor_const(Netlist& nl, const Bus& a, std::uint64_t constant) {
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back(((constant >> i) & 1u) ? nl.not_(a[i]) : a[i]);
  return out;
}

Bus mux_bus(Netlist& nl, SignalId sel, const Bus& a0, const Bus& a1) {
  common::require(a0.size() == a1.size(), "mux_bus: width mismatch");
  Bus out;
  out.reserve(a0.size());
  for (std::size_t i = 0; i < a0.size(); ++i)
    out.push_back(nl.mux(sel, a0[i], a1[i]));
  return out;
}

SignalId eq_const(Netlist& nl, const Bus& a, std::uint64_t value) {
  std::vector<SignalId> matches;
  matches.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    matches.push_back(((value >> i) & 1u) ? a[i] : nl.not_(a[i]));
  // AND-tree reduction.
  while (matches.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < matches.size(); i += 2)
      next.push_back(nl.and_(matches[i], matches[i + 1]));
    if (matches.size() % 2) next.push_back(matches.back());
    matches = std::move(next);
  }
  return matches.empty() ? nl.constant(true) : matches[0];
}

Bus increment_bus(Netlist& nl, const Bus& a) {
  Bus out;
  out.reserve(a.size());
  SignalId carry = netlist::kNoSignal;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == 0) {
      out.push_back(nl.not_(a[0]));
      carry = a[0];
    } else {
      out.push_back(nl.xor_(a[i], carry));
      if (i + 1 < a.size()) carry = nl.and_(a[i], carry);
    }
  }
  return out;
}

SignalId xor_tree(Netlist& nl, std::vector<SignalId> signals) {
  if (signals.empty()) return nl.constant(false);
  // Reduce pairwise to keep depth logarithmic, as a synthesis tool would.
  while (signals.size() > 1) {
    std::vector<SignalId> next;
    next.reserve((signals.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < signals.size(); i += 2)
      next.push_back(nl.xor_(signals[i], signals[i + 1]));
    if (signals.size() % 2) next.push_back(signals.back());
    signals = std::move(next);
  }
  return signals[0];
}

Bus apply_matrix(Netlist& nl, const gf::BitMatrix& m, const Bus& in) {
  common::require(m.cols() == in.size(), "apply_matrix: width mismatch");
  Bus out;
  out.reserve(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::vector<SignalId> terms;
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (m.get(r, c)) terms.push_back(in[c]);
    out.push_back(xor_tree(nl, std::move(terms)));
  }
  return out;
}

void name_bus(Netlist& nl, const Bus& bus, const std::string& base) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    nl.name_signal(bus[i], common::make_name(base, i));
}

void set_bus_all_lanes(sim::Simulator& simulator, const Bus& bus,
                       std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    simulator.set_input(bus[i], ((value >> i) & 1u) ? ~std::uint64_t{0} : 0);
}

void set_bus_per_lane(sim::Simulator& simulator, const Bus& bus,
                      std::span<const std::uint8_t, 64> values) {
  common::require(bus.size() <= 8, "set_bus_per_lane: bus wider than a byte");
  for (std::size_t i = 0; i < bus.size(); ++i) {
    std::uint64_t word = 0;
    for (unsigned lane = 0; lane < 64; ++lane)
      word |= static_cast<std::uint64_t>((values[lane] >> i) & 1u) << lane;
    simulator.set_input(bus[i], word);
  }
}

std::uint64_t read_bus_lane(const sim::Simulator& simulator, const Bus& bus,
                            unsigned lane) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    v |= static_cast<std::uint64_t>(simulator.value_in_lane(bus[i], lane)) << i;
  return v;
}

}  // namespace sca::gadgets
