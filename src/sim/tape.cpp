#include "src/sim/tape.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/check.hpp"
#include "src/common/simd.hpp"

namespace sca::sim {

using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

namespace {

// Pre-allocation op form over an extended node id space: signal ids first,
// then the temporaries MUX lowering introduces.
struct ProtoOp {
  TapeOpcode op = TapeOpcode::kAnd;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t level = 0;
};

TapeOpcode binary_opcode(GateKind kind) {
  switch (kind) {
    case GateKind::kAnd:
      return TapeOpcode::kAnd;
    case GateKind::kOr:
      return TapeOpcode::kOr;
    case GateKind::kXor:
      return TapeOpcode::kXor;
    case GateKind::kNand:
      return TapeOpcode::kNand;
    case GateKind::kNor:
      return TapeOpcode::kNor;
    case GateKind::kXnor:
      return TapeOpcode::kXnor;
    default:
      SCA_ASSERT(false, "compile_tape: unexpected binary gate kind");
      return TapeOpcode::kAnd;
  }
}

bool is_source(GateKind kind) {
  return kind == GateKind::kInput || kind == GateKind::kReg ||
         kind == GateKind::kConst0 || kind == GateKind::kConst1;
}

}  // namespace

Tape compile_tape(std::span<const netlist::Gate> gates,
                  std::span<const std::uint32_t> keep) {
  const std::size_t n = gates.size();

  // Liveness: reverse closure from the kept entries. Gates outside the
  // closure can never influence a kept value and are eliminated. Sources
  // always hold persistent slots: the caller drives them.
  std::vector<char> live(n, 0);
  std::vector<char> persistent(n, 0);
  std::vector<std::uint32_t> stack;
  auto mark = [&](std::uint32_t id) {
    persistent[id] = 1;
    if (!live[id]) {
      live[id] = 1;
      stack.push_back(id);
    }
  };
  for (const std::uint32_t id : keep) {
    common::require(id < n, "compile_tape: observed signal out of range");
    mark(id);
  }
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    const netlist::Gate& g = gates[id];
    if (is_source(g.kind)) continue;
    for (std::size_t i = 0; i < netlist::gate_arity(g.kind); ++i) {
      const SignalId f = g.fanin[i];
      SCA_ASSERT(f < id, "compile_tape: fanin after its gate");
      if (!live[f]) {
        live[f] = 1;
        stack.push_back(f);
      }
    }
  }
  for (std::size_t id = 0; id < n; ++id)
    if (is_source(gates[id].kind)) {
      persistent[id] = 1;
      live[id] = 1;
    }

  // Expand live combinational gates into proto-ops with ASAP levels.
  // Node ids beyond the gate space are MUX-lowering temporaries.
  std::vector<std::uint32_t> level(n, 0);
  std::vector<ProtoOp> protos;
  protos.reserve(n);
  std::uint32_t next_node = static_cast<std::uint32_t>(n);
  Tape tape;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const netlist::Gate& g = gates[id];
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kReg:
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;  // level 0 sources
      case GateKind::kBuf:
        level[id] = level[g.fanin[0]] + 1;
        protos.push_back(
            {TapeOpcode::kCopy, id, g.fanin[0], g.fanin[0], level[id]});
        ++tape.live_gates;
        break;
      case GateKind::kNot:
        level[id] = level[g.fanin[0]] + 1;
        protos.push_back(
            {TapeOpcode::kNot, id, g.fanin[0], g.fanin[0], level[id]});
        ++tape.live_gates;
        break;
      case GateKind::kMux: {
        // out = a0 ^ (sel & (a0 ^ a1)): three uniform two-operand ops.
        const SignalId sel = g.fanin[0], a0 = g.fanin[1], a1 = g.fanin[2];
        const std::uint32_t t1 = next_node++;
        const std::uint32_t t2 = next_node++;
        const std::uint32_t l1 = std::max(level[a0], level[a1]) + 1;
        protos.push_back({TapeOpcode::kXor, t1, a0, a1, l1});
        const std::uint32_t l2 = std::max(l1, level[sel]) + 1;
        protos.push_back({TapeOpcode::kAnd, t2, sel, t1, l2});
        level[id] = std::max(l2, level[a0]) + 1;
        protos.push_back({TapeOpcode::kXor, id, a0, t2, level[id]});
        ++tape.live_gates;
        break;
      }
      default:
        level[id] = std::max(level[g.fanin[0]], level[g.fanin[1]]) + 1;
        protos.push_back({binary_opcode(g.kind), id, g.fanin[0], g.fanin[1],
                          level[id]});
        ++tape.live_gates;
        break;
    }
  }

  // Batch by level, then group by opcode inside each level — gates of one
  // level are independent, so this reorder is free, and it is what turns
  // the dispatch switch into one branch per homogeneous run. The stable
  // sort keeps emission order inside equal (level, opcode) keys, making the
  // tape a pure function of the gate list.
  std::stable_sort(protos.begin(), protos.end(),
                   [](const ProtoOp& x, const ProtoOp& y) {
                     if (x.level != y.level) return x.level < y.level;
                     return static_cast<std::uint32_t>(x.op) <
                            static_cast<std::uint32_t>(y.op);
                   });
  for (const ProtoOp& p : protos) tape.levels = std::max<std::size_t>(tape.levels, p.level);

  // Last reader of every non-persistent node, in final tape order.
  const std::uint32_t num_nodes = next_node;
  constexpr std::uint32_t kNever = 0xFFFFFFFFu;
  std::vector<std::uint32_t> last_use(num_nodes, kNever);
  for (std::uint32_t i = 0; i < protos.size(); ++i) {
    last_use[protos[i].a] = i;
    last_use[protos[i].b] = i;
  }

  // Slot assignment: persistent slots first (ascending gate index, so the
  // layout is deterministic), then a free-slot stack for the temporaries.
  std::vector<std::uint32_t> slot(num_nodes, Tape::kNoSlot);
  std::uint32_t next_slot = 0;
  for (std::size_t id = 0; id < n; ++id)
    if (live[id] && persistent[id]) slot[id] = next_slot++;
  std::vector<std::uint32_t> free_slots;
  auto release = [&](std::uint32_t node, std::uint32_t pos) {
    const bool is_temp = node >= n || !persistent[node];
    if (is_temp && last_use[node] == pos) free_slots.push_back(slot[node]);
  };
  tape.ops.reserve(protos.size());
  for (std::uint32_t i = 0; i < protos.size(); ++i) {
    const ProtoOp& p = protos[i];
    const std::uint32_t a = slot[p.a];
    const std::uint32_t b = slot[p.b];
    SCA_ASSERT(a != Tape::kNoSlot && b != Tape::kNoSlot,
               "compile_tape: operand scheduled before its producer");
    release(p.a, i);
    if (p.b != p.a) release(p.b, i);
    std::uint32_t d = slot[p.dst];
    if (d == Tape::kNoSlot) {
      if (!free_slots.empty()) {
        d = free_slots.back();
        free_slots.pop_back();
      } else {
        d = next_slot++;
      }
      slot[p.dst] = d;
    }
    tape.ops.push_back({d, a, b});
    if (tape.runs.empty() || tape.runs.back().op != p.op)
      tape.runs.push_back({p.op, static_cast<std::uint32_t>(i + 1)});
    else
      tape.runs.back().end = static_cast<std::uint32_t>(i + 1);
  }
  tape.slot_count = next_slot;

  tape.slot_of.assign(n, Tape::kNoSlot);
  for (std::size_t id = 0; id < n; ++id)
    if (live[id] && persistent[id]) {
      tape.slot_of[id] = slot[id];
      if (gates[id].kind == GateKind::kConst1)
        tape.const_one_slots.push_back(slot[id]);
    }
  return tape;
}

Tape compile_tape(const Netlist& nl, const std::vector<SignalId>& observed) {
  std::vector<std::uint32_t> keep;
  if (observed.empty()) {
    keep.resize(nl.size());
    std::iota(keep.begin(), keep.end(), std::uint32_t{0});
  } else {
    keep = observed;
    for (SignalId r : nl.registers()) keep.push_back(nl.gate(r).fanin[0]);
  }
  Tape tape = compile_tape(nl.gates(), keep);
  for (SignalId r : nl.registers())
    tape.reg_latch.emplace_back(tape.slot_of[r],
                                tape.slot_of[nl.gate(r).fanin[0]]);
  return tape;
}

void reset_slots(const Tape& tape, unsigned limbs,
                 std::vector<std::uint64_t>& slots) {
  slots.assign(static_cast<std::size_t>(tape.slot_count) * limbs, 0);
  for (const std::uint32_t s : tape.const_one_slots)
    std::fill_n(slots.begin() + static_cast<std::size_t>(s) * limbs, limbs,
                ~std::uint64_t{0});
}

template <unsigned kLimbs>
void run_tape(const Tape& tape, std::uint64_t* slots) {
  using Word = common::SimdWord<kLimbs>;
  const TapeOp* const ops = tape.ops.data();
  auto ld = [slots](std::uint32_t s) { return Word::load(slots + s * kLimbs); };
  std::size_t i = 0;
  for (const TapeRun& run : tape.runs) {
    const std::size_t end = run.end;
    switch (run.op) {
      case TapeOpcode::kAnd:
        for (; i < end; ++i)
          (ld(ops[i].a) & ld(ops[i].b)).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kOr:
        for (; i < end; ++i)
          (ld(ops[i].a) | ld(ops[i].b)).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kXor:
        for (; i < end; ++i)
          (ld(ops[i].a) ^ ld(ops[i].b)).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kNand:
        for (; i < end; ++i)
          (~(ld(ops[i].a) & ld(ops[i].b))).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kNor:
        for (; i < end; ++i)
          (~(ld(ops[i].a) | ld(ops[i].b))).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kXnor:
        for (; i < end; ++i)
          (~(ld(ops[i].a) ^ ld(ops[i].b))).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kNot:
        for (; i < end; ++i)
          (~ld(ops[i].a)).store(slots + ops[i].dst * kLimbs);
        break;
      case TapeOpcode::kCopy:
        for (; i < end; ++i)
          ld(ops[i].a).store(slots + ops[i].dst * kLimbs);
        break;
    }
  }
}

template void run_tape<1>(const Tape&, std::uint64_t*);
template void run_tape<4>(const Tape&, std::uint64_t*);
template void run_tape<8>(const Tape&, std::uint64_t*);

}  // namespace sca::sim
