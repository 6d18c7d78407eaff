// Straight-line compiled form of combinational logic — the one gate
// evaluator of the engine. The campaign's simulator, the exact verifier's
// cone enumeration and the linter's gadget re-verification all run their
// gates through run_tape.
//
// compile_tape turns a topologically ordered gate list into a flat op tape:
//
//   * **Dead-gate elimination** against the kept entries: only gates
//     feeding a kept value survive. A leakage campaign keeps stable points
//     (inputs and registers) and register D inputs only, so the whole
//     non-state-bearing slice of the cloud drops out of the hot loop.
//   * **Levelization**: surviving gates are batched by combinational depth
//     (sources at level 0, a gate one past its deepest fanin). Gates within
//     a level are independent, so they can be reordered freely — they are
//     sorted by opcode, turning the tape into long homogeneous runs.
//   * **Register-pressure-aware slot allocation**: persistent values
//     (sources and kept entries) get fixed slots; dead intermediates
//     recycle a small free-slot stack the moment their last reader has
//     executed, so the working set stays cache-resident instead of
//     spanning one word per gate.
//   * **Uniform two-operand ops**: MUX lowers to XOR/AND/XOR, BUF to COPY,
//     leaving eight opcodes. Execution dispatches once per *run* of equal
//     opcodes and then streams — no per-gate branching on GateKind.
//
// Source kinds (kInput, kReg, kConst0, kConst1) read nothing: each holds a
// persistent slot that the caller drives and the tape never writes, so a
// caller's own leaves (cone inputs, gadget operands) are sources too.
//
// The tape is lane-width agnostic: run_tape<kLimbs> executes it over
// SimdWord<kLimbs> values, with slot i's limbs at slots[i * kLimbs]. The
// same tape run at any width computes bit-identical lane values; the tests
// compare it against an interpreted 64-lane oracle
// (tests/reference_simulator.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/netlist/ir.hpp"

namespace sca::sim {

enum class TapeOpcode : std::uint32_t {
  kAnd,
  kOr,
  kXor,
  kNand,
  kNor,
  kXnor,
  kNot,
  kCopy,
};

/// One compiled op: slots[dst] = slots[a] OP slots[b] (unary ops read `a`
/// only; `b` is set equal to `a` so the operand is always loadable).
struct TapeOp {
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// A maximal run of consecutive ops sharing one opcode: ops [begin of the
/// previous run's end, end) all execute `op`.
struct TapeRun {
  TapeOpcode op = TapeOpcode::kAnd;
  std::uint32_t end = 0;
};

struct Tape {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::vector<TapeOp> ops;
  std::vector<TapeRun> runs;
  /// Gate (signal) index -> value slot; kNoSlot where the value was
  /// eliminated as dead or is a recycled intermediate.
  std::vector<std::uint32_t> slot_of;
  /// (register slot, D-input slot) per register, in netlist register order
  /// (the Netlist front end only).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reg_latch;
  /// Slots holding constant-1 sources; reset_slots fills them with ones.
  std::vector<std::uint32_t> const_one_slots;
  std::uint32_t slot_count = 0;

  // Compilation statistics (reported by Schedule).
  std::size_t live_gates = 0;  ///< comb gates surviving dead-gate elimination
  std::size_t levels = 0;      ///< combinational depth of the live cone
};

/// Compiles a gate list into a tape. Every combinational gate's fanins
/// index earlier entries of `gates`; sources read nothing. `keep` lists the
/// entries whose settled values must stay readable through slot_of: the
/// gates outside their fan-in are eliminated. Sources always keep their
/// slots.
Tape compile_tape(std::span<const netlist::Gate> gates,
                  std::span<const std::uint32_t> keep);

/// The Netlist front end: compiles the combinational logic of `nl` with its
/// signal ids as gate indices. `observed` lists the signals whose settled
/// values must stay readable (empty = every signal, i.e. no dead-gate
/// elimination); register D cones are always kept so state advances
/// correctly, and reg_latch is filled.
Tape compile_tape(const netlist::Netlist& nl,
                  const std::vector<netlist::SignalId>& observed);

/// Sizes `slots` to the tape's slot file at `limbs` words per slot, zeroes
/// it and fills the constant-1 slots with all-ones: the state before the
/// first run_tape, with every driven source at 0.
void reset_slots(const Tape& tape, unsigned limbs,
                 std::vector<std::uint64_t>& slots);

/// Executes one settle pass over the slot file (kLimbs 64-bit words per
/// slot, i.e. 64 * kLimbs lanes). Instantiated for kLimbs in {1, 4, 8}.
template <unsigned kLimbs>
void run_tape(const Tape& tape, std::uint64_t* slots);

extern template void run_tape<1>(const Tape&, std::uint64_t*);
extern template void run_tape<4>(const Tape&, std::uint64_t*);
extern template void run_tape<8>(const Tape&, std::uint64_t*);

}  // namespace sca::sim
