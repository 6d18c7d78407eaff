#include "src/verif/unroll.hpp"

#include <limits>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/netlist/cone.hpp"

namespace sca::verif {

using common::require;
using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

std::size_t sequential_depth(const Netlist& nl) {
  // depth(reg) = 1 + max depth over registers in the combinational support
  // of its D input; inputs have depth 0. Computed by DFS with cycle check.
  const std::vector<SignalId> regs = nl.registers();
  if (regs.empty()) return 0;
  const netlist::StableSupport supports(nl);

  enum class State : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<State> state(nl.size(), State::kWhite);
  std::vector<std::size_t> depth(nl.size(), 0);

  // Iterative DFS over the register dependency graph.
  struct Frame {
    SignalId reg;
    std::vector<SignalId> deps;
    std::size_t next = 0;
  };
  auto reg_deps = [&](SignalId reg) {
    std::vector<SignalId> deps;
    const SignalId d = nl.gate(reg).fanin[0];
    for (std::size_t idx : supports.support(d).set_bits()) {
      const SignalId src = supports.stable_points()[idx];
      if (nl.kind(src) == GateKind::kReg) deps.push_back(src);
    }
    return deps;
  };

  for (SignalId root : regs) {
    if (state[root] != State::kWhite) continue;
    std::vector<Frame> stack;
    stack.push_back({root, reg_deps(root)});
    state[root] = State::kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < frame.deps.size()) {
        const SignalId dep = frame.deps[frame.next++];
        if (state[dep] == State::kGray) {
          // The gray frames from `dep` up to the top of the stack are the
          // cycle; report the whole path, not just the re-encountered node.
          std::string path;
          bool in_cycle = false;
          for (const Frame& f : stack) {
            if (f.reg == dep) in_cycle = true;
            if (in_cycle) path += nl.signal_name(f.reg) + " -> ";
          }
          path += nl.signal_name(dep);
          throw common::Error(
              "sequential_depth: register feedback cycle " + path +
              " — circuit is not a pipeline (cut it with "
              "netlist::extract_slice, or annotate the loop registers)");
        }
        if (state[dep] == State::kWhite) {
          state[dep] = State::kGray;
          stack.push_back({dep, reg_deps(dep)});
        }
      } else {
        std::size_t d = 1;
        for (SignalId dep : frame.deps) d = std::max(d, depth[dep] + 1);
        depth[frame.reg] = d;
        state[frame.reg] = State::kBlack;
        stack.pop_back();
      }
    }
  }

  std::size_t max_depth = 0;
  for (SignalId r : regs) max_depth = std::max(max_depth, depth[r]);
  return max_depth;
}

Unrolled unroll(const Netlist& nl, std::size_t cycles,
                const std::vector<SignalId>& held_inputs) {
  require(cycles >= 1, "unroll: need at least one cycle");
  nl.validate();
  std::vector<bool> held(nl.size(), false);
  for (SignalId id : held_inputs) {
    require(id < nl.size() && nl.kind(id) == GateKind::kInput,
            "unroll: held signal is not a primary input");
    held[id] = true;
  }

  Unrolled out;
  out.cycles = cycles;
  out.map.assign(cycles, std::vector<SignalId>(nl.size(), netlist::kNoSignal));

  const std::vector<SignalId> order = nl.topological_order();
  for (std::size_t c = 0; c < cycles; ++c) {
    for (SignalId id : order) {
      const netlist::Gate& g = nl.gate(id);
      SignalId mapped = netlist::kNoSignal;
      switch (g.kind) {
        case GateKind::kInput: {
          if (held[id] && c > 0) {
            // Held input: every cycle observes the single cycle-0 instance.
            mapped = out.map[0][id];
            break;
          }
          // Fresh input instance per cycle.
          const netlist::InputInfo* info = nullptr;
          for (const auto& in : nl.inputs())
            if (in.signal == id) info = &in;
          SCA_ASSERT(info != nullptr, "unroll: input without info");
          mapped = out.nl.add_input(
              info->role,
              held[id] ? nl.signal_name(id)
                       : common::make_name(nl.signal_name(id), "@c", c),
              info->share);
          out.input_cycle.push_back(c);
          out.input_original.push_back(id);
          break;
        }
        case GateKind::kReg:
          // Value during cycle c = D function during cycle c-1; undefined at
          // cycle 0 (cold start).
          mapped = (c == 0) ? netlist::kNoSignal : out.map[c - 1][g.fanin[0]];
          break;
        case GateKind::kConst0:
        case GateKind::kConst1:
          mapped = out.nl.constant(g.kind == GateKind::kConst1);
          break;
        default: {
          const std::size_t arity = netlist::gate_arity(g.kind);
          std::array<SignalId, 3> fan = {netlist::kNoSignal, netlist::kNoSignal,
                                         netlist::kNoSignal};
          bool defined = true;
          for (std::size_t i = 0; i < arity; ++i) {
            fan[i] = out.map[c][g.fanin[i]];
            if (fan[i] == netlist::kNoSignal) defined = false;
          }
          if (defined) mapped = out.nl.add_gate(g.kind, fan[0], fan[1], fan[2]);
          break;
        }
      }
      out.map[c][id] = mapped;
    }
  }
  return out;
}

}  // namespace sca::verif
