// Gate-level netlist intermediate representation.
//
// This is the circuit model the whole system revolves around. It matches the
// information content a probing evaluation tool (PROLEAD, SILVER, ...) reads
// from a synthesized Verilog netlist:
//   - combinational cells with Boolean functions,
//   - D flip-flops (one global implicit clock, synchronous, init 0),
//   - primary inputs labeled with their security role (share of a secret,
//     fresh randomness, public control),
//   - named primary outputs.
//
// Signals are identified by dense 32-bit ids; signal id == index of the gate
// driving it, so the netlist is an SSA-like gate array. Hierarchical names
// ("sbox.kron.G7.cross0") are attached for reporting; the evaluation engine
// uses them to localize leakage the way the paper points at gate G7.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sca::netlist {

using SignalId = std::uint32_t;
inline constexpr SignalId kNoSignal = 0xFFFFFFFFu;

/// Cell/function of a gate. kInput and kReg are the "stable" signal sources
/// of the robust probing model; everything else is combinational.
enum class GateKind : std::uint8_t {
  kConst0,
  kConst1,
  kInput,
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux,  ///< fanin = {select, a(sel=0), b(sel=1)}
  kReg,  ///< D flip-flop; fanin[0] = D
};

/// Number of fanin operands a gate kind takes.
constexpr std::size_t gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::kConst0:
    case GateKind::kConst1:
    case GateKind::kInput:
      return 0;
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kReg:
      return 1;
    case GateKind::kMux:
      return 3;
    default:
      return 2;
  }
}

/// Short mnemonic ("AND", "DFF", ...) for exports and reports.
std::string_view gate_kind_name(GateKind kind);

/// Security role of a primary input, as declared to the evaluation engine.
enum class InputRole : std::uint8_t {
  kShare,    ///< one bit of one Boolean share of a secret
  kRandom,   ///< fresh mask bit, redrawn uniformly every clock cycle
  kControl,  ///< public control/constant input
};

/// Labeling of a share input: bit `bit` of share `share` of secret group
/// `secret`. Secret groups number the independent secrets (e.g. the 8-bit
/// Sbox input is one group with bits 0..7 and shares 0..d).
struct ShareLabel {
  std::uint32_t secret = 0;
  std::uint32_t share = 0;
  std::uint32_t bit = 0;
};

struct Gate {
  GateKind kind = GateKind::kConst0;
  std::array<SignalId, 3> fanin = {kNoSignal, kNoSignal, kNoSignal};
};

/// Metadata describing one primary input.
struct InputInfo {
  SignalId signal = kNoSignal;
  InputRole role = InputRole::kControl;
  ShareLabel share;  ///< valid iff role == kShare
};

/// A named primary output.
struct OutputInfo {
  SignalId signal = kNoSignal;
  std::string name;
};

/// Security role of an *architectural state register*, declared by the
/// builder so slice extraction (netlist/slice.hpp) can cut feedback at the
/// register and re-introduce its output as a slice input with the right
/// lint label.
enum class StateRole : std::uint8_t {
  kShare,   ///< one bit of one Boolean share of an annotation group
  kPublic,  ///< public/deterministic control state (e.g. an FSM counter)
};

/// Annotation of one state register. For kShare, `label.secret` numbers the
/// *annotation group* (an architectural state word, e.g. AES state byte 3) —
/// a namespace separate from the input secret groups; slice extraction maps
/// annotation groups onto fresh secret groups after the input ones.
struct StateAnnotation {
  StateRole role = StateRole::kPublic;
  ShareLabel label;  ///< valid iff role == kShare
};

/// Structure kind of an annotated GF(2^8) arithmetic gadget (see GfGadget).
enum class GfGadgetKind : std::uint8_t {
  kMul,     ///< out = a * b in GF(2^8), AES polynomial 0x11B
  kInv,     ///< out = a^254 (inverse, with inv(0) = 0); `b` empty
  kSquare,  ///< out = a^2 (Frobenius); `b` empty
};

std::string_view gf_gadget_kind_name(GfGadgetKind kind);

/// Builder-declared GF(2^8) arithmetic structure: the 8 signals of `out`
/// (bit 0 first) compute the field operation of the 8-bit operand buses `a`
/// and `b`. The *wiring claim* is verified exhaustively by consumers (the
/// linter simulates the combinational cone against golden GF(2^8 )
/// arithmetic before trusting a gadget); the annotation only tells them
/// where to look — byte-level algebra is invisible in a bit-level netlist.
struct GfGadget {
  GfGadgetKind kind = GfGadgetKind::kMul;
  std::vector<SignalId> out;
  std::vector<SignalId> a;
  std::vector<SignalId> b;  ///< empty for kInv / kSquare
};

class Netlist {
 public:
  Netlist() = default;

  // --- construction ----------------------------------------------------------

  /// Adds a constant driver.
  SignalId constant(bool value);

  /// Adds a primary input with the given role; share inputs carry a label.
  SignalId add_input(InputRole role, std::string name,
                     ShareLabel label = ShareLabel{});

  /// Adds a combinational gate or register. Arity is checked against `kind`,
  /// and fanins must already exist (no forward references except via
  /// make_reg_placeholder / connect_reg below).
  SignalId add_gate(GateKind kind, SignalId a = kNoSignal,
                    SignalId b = kNoSignal, SignalId c = kNoSignal);

  // Convenience builders.
  SignalId buf(SignalId a) { return add_gate(GateKind::kBuf, a); }
  SignalId not_(SignalId a) { return add_gate(GateKind::kNot, a); }
  SignalId and_(SignalId a, SignalId b) { return add_gate(GateKind::kAnd, a, b); }
  SignalId nand_(SignalId a, SignalId b) { return add_gate(GateKind::kNand, a, b); }
  SignalId or_(SignalId a, SignalId b) { return add_gate(GateKind::kOr, a, b); }
  SignalId nor_(SignalId a, SignalId b) { return add_gate(GateKind::kNor, a, b); }
  SignalId xor_(SignalId a, SignalId b) { return add_gate(GateKind::kXor, a, b); }
  SignalId xnor_(SignalId a, SignalId b) { return add_gate(GateKind::kXnor, a, b); }
  SignalId mux(SignalId sel, SignalId a0, SignalId a1) {
    return add_gate(GateKind::kMux, sel, a0, a1);
  }
  SignalId reg(SignalId d) { return add_gate(GateKind::kReg, d); }

  /// Adds a register whose D input is connected later (for feedback loops,
  /// e.g. FSM state). Must be resolved with connect_reg before validate().
  SignalId make_reg_placeholder();
  void connect_reg(SignalId reg_signal, SignalId d);

  /// Declares a named primary output.
  void add_output(std::string name, SignalId signal);

  // --- state annotations ------------------------------------------------------

  /// Declares the security role of a state register (slice-extraction cut
  /// metadata). `label` is required for StateRole::kShare and ignored for
  /// kPublic; re-annotating a register overwrites the previous annotation.
  void annotate_register(SignalId reg, StateRole role,
                         ShareLabel label = ShareLabel{});

  /// The annotation of a register, or nullptr when none was declared.
  const StateAnnotation* register_annotation(SignalId reg) const;

  /// Registers with an annotation, ascending by signal id.
  std::vector<SignalId> annotated_registers() const;

  /// Number of annotation groups declared by share-state annotations (max
  /// group + 1), mirroring secret_group_count() for register state.
  std::uint32_t state_group_count() const;

  /// Attaches a display name to an annotation group ("aes.st3"); findings
  /// and reports use it instead of the bare group number.
  void set_state_group_name(std::uint32_t group, std::string name);
  /// The attached name, or "g<group>" when none was set.
  std::string state_group_name(std::uint32_t group) const;

  /// Attaches a display name to an input secret group. Slice extraction
  /// uses this to carry annotation-group names onto the fresh secret groups
  /// it creates for cut registers.
  void set_secret_group_name(std::uint32_t secret, std::string name);
  /// The attached name, or the conventional "s<secret>" when none was set.
  std::string secret_group_name(std::uint32_t secret) const;

  /// All explicitly named state/secret groups, ascending by group (for
  /// lossless serialization).
  std::vector<std::pair<std::uint32_t, std::string>> named_state_groups() const;
  std::vector<std::pair<std::uint32_t, std::string>> named_secret_groups() const;

  // --- constrained-randomness annotations -------------------------------------
  //
  // InputRole::kRandom promises independent uniform bits. The multiplicative
  // masking stages need more structure than that: a blinding byte drawn
  // uniformly from GF(2^8)* (its 8 bits are *jointly* constrained — never
  // all zero), and sharings whose recombined value is guaranteed nonzero
  // (the Kronecker delta's X' = X ^ [X == 0]). These annotations declare
  // that structure so static analysis (src/lint) and the exact verifier
  // (src/verif) can reason under the constrained distribution instead of
  // fencing the multiplicative stages out of scope.

  /// Declares that the 8 random input bits of `bus` (bit 0 = LSB first) are
  /// drawn jointly uniform from GF(2^8)* — never the zero byte — rather
  /// than as 8 independent uniform bits. All bits must be kRandom inputs.
  void add_nonzero_bus(std::vector<SignalId> bus);

  /// Declared nonzero byte buses, in declaration order.
  const std::vector<std::vector<SignalId>>& nonzero_buses() const {
    return nonzero_buses_;
  }

  /// True iff `signal` is a bit of a declared nonzero bus.
  bool in_nonzero_bus(SignalId signal) const;

  /// Declares that the 8-bit buses in `shares` form a Boolean sharing whose
  /// recombined byte is guaranteed nonzero, with every proper subset of the
  /// share buses jointly uniform given the secrets (the standard fresh-
  /// sharing property — e.g. the post-Kronecker X' = X ^ delta(X)).
  void add_nonzero_sharing(std::vector<std::vector<SignalId>> shares);

  /// Declared nonzero sharings, in declaration order.
  const std::vector<std::vector<std::vector<SignalId>>>& nonzero_sharings()
      const {
    return nonzero_sharings_;
  }

  /// Declares a GF(2^8) arithmetic gadget (see GfGadget). Bus widths are
  /// checked here; the wiring claim itself is verified by consumers.
  void add_gf_gadget(GfGadget gadget);

  /// Declared GF gadgets, in declaration order.
  const std::vector<GfGadget>& gf_gadgets() const { return gf_gadgets_; }

  // --- naming / hierarchy -----------------------------------------------------

  /// Pushes/pops a hierarchical scope; names given to signals while a scope
  /// is active are prefixed with "scope1.scope2.".
  void push_scope(std::string_view scope);
  void pop_scope();

  /// Current scope prefix including trailing '.' (empty at top level).
  std::string scope_prefix() const;

  /// Attaches a debug name to a signal (prefixed with the current scope).
  void name_signal(SignalId signal, std::string_view name);

  /// Best-effort name: explicit name, or "<kind>#<id>".
  std::string signal_name(SignalId signal) const;

  /// The explicit name, if any was attached.
  std::optional<std::string> explicit_name(SignalId signal) const;

  // --- inspection ------------------------------------------------------------

  std::size_t size() const { return gates_.size(); }
  const Gate& gate(SignalId id) const;
  GateKind kind(SignalId id) const { return gate(id).kind; }
  /// Every gate, indexed by signal id.
  const std::vector<Gate>& gates() const { return gates_; }

  const std::vector<InputInfo>& inputs() const { return inputs_; }
  const std::vector<OutputInfo>& outputs() const { return outputs_; }

  /// All register signals, ascending.
  std::vector<SignalId> registers() const;

  /// Count of gates of a given kind.
  std::size_t count(GateKind kind) const;

  /// Number of combinational cells (everything except inputs/consts/regs).
  std::size_t combinational_count() const;

  /// Number of distinct secret groups declared by share inputs (max+1).
  std::uint32_t secret_group_count() const;

  /// Number of shares declared for a secret group (max share index + 1).
  std::uint32_t share_count(std::uint32_t secret) const;

  /// Number of random inputs.
  std::size_t random_input_count() const;

  // --- structural checks / ordering -------------------------------------------

  /// Validates the netlist: all fanins resolved and in range, no placeholder
  /// registers left dangling, no combinational cycles. Throws on violation.
  void validate() const;

  /// Topological order of all signals where registers and inputs come before
  /// any combinational gate that reads them (registers read their D through
  /// the *previous* cycle, so they are sources in the combinational DAG).
  /// Throws if a combinational cycle exists.
  std::vector<SignalId> topological_order() const;

 private:
  std::vector<Gate> gates_;
  std::vector<InputInfo> inputs_;
  std::vector<OutputInfo> outputs_;
  std::vector<std::string> scopes_;
  std::unordered_map<SignalId, std::string> names_;
  std::vector<bool> reg_placeholder_;  // parallels gates_; true = unconnected
  std::unordered_map<SignalId, StateAnnotation> state_annotations_;
  std::unordered_map<std::uint32_t, std::string> state_group_names_;
  std::unordered_map<std::uint32_t, std::string> secret_group_names_;
  std::vector<std::vector<SignalId>> nonzero_buses_;
  std::vector<std::vector<std::vector<SignalId>>> nonzero_sharings_;
  std::vector<GfGadget> gf_gadgets_;
};

}  // namespace sca::netlist
