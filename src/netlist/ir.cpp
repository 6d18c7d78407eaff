#include "src/netlist/ir.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::netlist {

using common::require;

std::string_view gate_kind_name(GateKind kind) {
  switch (kind) {
    case GateKind::kConst0: return "CONST0";
    case GateKind::kConst1: return "CONST1";
    case GateKind::kInput:  return "INPUT";
    case GateKind::kBuf:    return "BUF";
    case GateKind::kNot:    return "NOT";
    case GateKind::kAnd:    return "AND";
    case GateKind::kNand:   return "NAND";
    case GateKind::kOr:     return "OR";
    case GateKind::kNor:    return "NOR";
    case GateKind::kXor:    return "XOR";
    case GateKind::kXnor:   return "XNOR";
    case GateKind::kMux:    return "MUX";
    case GateKind::kReg:    return "DFF";
  }
  return "?";
}

SignalId Netlist::constant(bool value) {
  return add_gate(value ? GateKind::kConst1 : GateKind::kConst0);
}

SignalId Netlist::add_input(InputRole role, std::string name, ShareLabel label) {
  const SignalId id = add_gate(GateKind::kInput);
  InputInfo info;
  info.signal = id;
  info.role = role;
  info.share = label;
  inputs_.push_back(info);
  name_signal(id, name);
  return id;
}

SignalId Netlist::add_gate(GateKind kind, SignalId a, SignalId b, SignalId c) {
  const std::array<SignalId, 3> fanin = {a, b, c};
  const std::size_t arity = gate_arity(kind);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i < arity) {
      require(fanin[i] != kNoSignal, "add_gate: missing fanin operand");
      require(fanin[i] < gates_.size(), "add_gate: fanin id out of range");
    } else {
      require(fanin[i] == kNoSignal, "add_gate: too many fanin operands");
    }
  }
  Gate g;
  g.kind = kind;
  g.fanin = fanin;
  gates_.push_back(g);
  reg_placeholder_.push_back(false);
  return static_cast<SignalId>(gates_.size() - 1);
}

SignalId Netlist::make_reg_placeholder() {
  Gate g;
  g.kind = GateKind::kReg;
  gates_.push_back(g);
  reg_placeholder_.push_back(true);
  return static_cast<SignalId>(gates_.size() - 1);
}

void Netlist::connect_reg(SignalId reg_signal, SignalId d) {
  require(reg_signal < gates_.size() && gates_[reg_signal].kind == GateKind::kReg,
          "connect_reg: target is not a register");
  require(reg_placeholder_[reg_signal], "connect_reg: register already connected");
  require(d < gates_.size(), "connect_reg: D fanin out of range");
  gates_[reg_signal].fanin[0] = d;
  reg_placeholder_[reg_signal] = false;
}

void Netlist::add_output(std::string name, SignalId signal) {
  require(signal < gates_.size(), "add_output: signal out of range");
  outputs_.push_back(OutputInfo{signal, std::move(name)});
}

void Netlist::annotate_register(SignalId reg, StateRole role,
                                ShareLabel label) {
  require(reg < gates_.size() && gates_[reg].kind == GateKind::kReg,
          "annotate_register: target is not a register");
  StateAnnotation a;
  a.role = role;
  a.label = role == StateRole::kShare ? label : ShareLabel{};
  state_annotations_[reg] = a;
}

const StateAnnotation* Netlist::register_annotation(SignalId reg) const {
  const auto it = state_annotations_.find(reg);
  return it == state_annotations_.end() ? nullptr : &it->second;
}

std::vector<SignalId> Netlist::annotated_registers() const {
  std::vector<SignalId> out;
  out.reserve(state_annotations_.size());
  for (const auto& [id, annotation] : state_annotations_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t Netlist::state_group_count() const {
  std::uint32_t max_group = 0;
  bool any = false;
  for (const auto& [id, annotation] : state_annotations_) {
    if (annotation.role != StateRole::kShare) continue;
    any = true;
    max_group = std::max(max_group, annotation.label.secret);
  }
  return any ? max_group + 1 : 0;
}

void Netlist::set_state_group_name(std::uint32_t group, std::string name) {
  state_group_names_[group] = std::move(name);
}

std::string Netlist::state_group_name(std::uint32_t group) const {
  if (auto it = state_group_names_.find(group); it != state_group_names_.end())
    return it->second;
  return common::make_name("g", group);
}

void Netlist::set_secret_group_name(std::uint32_t secret, std::string name) {
  secret_group_names_[secret] = std::move(name);
}

std::string Netlist::secret_group_name(std::uint32_t secret) const {
  if (auto it = secret_group_names_.find(secret);
      it != secret_group_names_.end())
    return it->second;
  return common::make_name("s", secret);
}

namespace {
std::vector<std::pair<std::uint32_t, std::string>> sorted_entries(
    const std::unordered_map<std::uint32_t, std::string>& map) {
  std::vector<std::pair<std::uint32_t, std::string>> out(map.begin(), map.end());
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

std::vector<std::pair<std::uint32_t, std::string>> Netlist::named_state_groups()
    const {
  return sorted_entries(state_group_names_);
}

std::vector<std::pair<std::uint32_t, std::string>>
Netlist::named_secret_groups() const {
  return sorted_entries(secret_group_names_);
}

std::string_view gf_gadget_kind_name(GfGadgetKind kind) {
  switch (kind) {
    case GfGadgetKind::kMul:    return "MUL";
    case GfGadgetKind::kInv:    return "INV";
    case GfGadgetKind::kSquare: return "SQUARE";
  }
  return "?";
}

void Netlist::add_nonzero_bus(std::vector<SignalId> bus) {
  require(bus.size() == 8, "add_nonzero_bus: bus must be 8 bits");
  for (const SignalId id : bus) {
    require(id < gates_.size() && gates_[id].kind == GateKind::kInput,
            "add_nonzero_bus: bit is not a primary input");
    const auto it = std::find_if(
        inputs_.begin(), inputs_.end(),
        [id](const InputInfo& in) { return in.signal == id; });
    require(it != inputs_.end() && it->role == InputRole::kRandom,
            "add_nonzero_bus: bit is not a random input");
  }
  nonzero_buses_.push_back(std::move(bus));
}

bool Netlist::in_nonzero_bus(SignalId signal) const {
  for (const auto& bus : nonzero_buses_)
    if (std::find(bus.begin(), bus.end(), signal) != bus.end()) return true;
  return false;
}

void Netlist::add_nonzero_sharing(std::vector<std::vector<SignalId>> shares) {
  require(shares.size() >= 2, "add_nonzero_sharing: need at least 2 shares");
  for (const auto& share : shares) {
    require(share.size() == 8, "add_nonzero_sharing: share must be 8 bits");
    for (const SignalId id : share)
      require(id < gates_.size(), "add_nonzero_sharing: bit out of range");
  }
  nonzero_sharings_.push_back(std::move(shares));
}

void Netlist::add_gf_gadget(GfGadget gadget) {
  require(gadget.out.size() == 8 && gadget.a.size() == 8,
          "add_gf_gadget: out/a must be 8 bits");
  require(gadget.b.size() == (gadget.kind == GfGadgetKind::kMul ? 8u : 0u),
          "add_gf_gadget: b must be 8 bits for MUL and empty otherwise");
  for (const auto* bus : {&gadget.out, &gadget.a, &gadget.b})
    for (const SignalId id : *bus)
      require(id < gates_.size(), "add_gf_gadget: signal out of range");
  gf_gadgets_.push_back(std::move(gadget));
}

void Netlist::push_scope(std::string_view scope) {
  scopes_.emplace_back(scope);
}

void Netlist::pop_scope() {
  require(!scopes_.empty(), "pop_scope: no scope active");
  scopes_.pop_back();
}

std::string Netlist::scope_prefix() const {
  std::string prefix;
  for (const auto& s : scopes_) {
    prefix += s;
    prefix += '.';
  }
  return prefix;
}

void Netlist::name_signal(SignalId signal, std::string_view name) {
  require(signal < gates_.size(), "name_signal: signal out of range");
  names_[signal] = scope_prefix() + std::string(name);
}

std::string Netlist::signal_name(SignalId signal) const {
  if (auto it = names_.find(signal); it != names_.end()) return it->second;
  return common::make_name(gate_kind_name(kind(signal)), "#", signal);
}

std::optional<std::string> Netlist::explicit_name(SignalId signal) const {
  if (auto it = names_.find(signal); it != names_.end()) return it->second;
  return std::nullopt;
}

const Gate& Netlist::gate(SignalId id) const {
  SCA_ASSERT(id < gates_.size(), "gate id out of range");
  return gates_[id];
}

std::vector<SignalId> Netlist::registers() const {
  std::vector<SignalId> out;
  for (SignalId id = 0; id < gates_.size(); ++id)
    if (gates_[id].kind == GateKind::kReg) out.push_back(id);
  return out;
}

std::size_t Netlist::count(GateKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(),
                    [kind](const Gate& g) { return g.kind == kind; }));
}

std::size_t Netlist::combinational_count() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kReg:
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;
      default:
        ++n;
    }
  }
  return n;
}

std::uint32_t Netlist::secret_group_count() const {
  std::uint32_t max_secret = 0;
  bool any = false;
  for (const auto& in : inputs_) {
    if (in.role == InputRole::kShare) {
      any = true;
      max_secret = std::max(max_secret, in.share.secret);
    }
  }
  return any ? max_secret + 1 : 0;
}

std::uint32_t Netlist::share_count(std::uint32_t secret) const {
  std::uint32_t max_share = 0;
  bool any = false;
  for (const auto& in : inputs_) {
    if (in.role == InputRole::kShare && in.share.secret == secret) {
      any = true;
      max_share = std::max(max_share, in.share.share);
    }
  }
  return any ? max_share + 1 : 0;
}

std::size_t Netlist::random_input_count() const {
  return static_cast<std::size_t>(
      std::count_if(inputs_.begin(), inputs_.end(), [](const InputInfo& in) {
        return in.role == InputRole::kRandom;
      }));
}

void Netlist::validate() const {
  // Messages are built only on failure: signal_name() is a map lookup and
  // a string copy, far more than the checks themselves.
  for (SignalId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (reg_placeholder_[id])
      throw common::Error("validate: register " + signal_name(id) +
                          " has unconnected D");
    const std::size_t arity = gate_arity(g.kind);
    for (std::size_t i = 0; i < arity; ++i) {
      if (g.fanin[i] == kNoSignal)
        throw common::Error("validate: gate " + signal_name(id) +
                            " missing fanin");
      if (g.fanin[i] >= gates_.size())
        throw common::Error("validate: gate " + signal_name(id) +
                            " fanin out of range");
      // Registers may read forward (feedback); combinational gates were built
      // append-only, so their fanins always precede them. Re-check anyway to
      // catch memory corruption or future builder changes.
      if (g.kind != GateKind::kReg && g.fanin[i] >= id)
        throw common::Error("validate: combinational forward reference at " +
                            signal_name(id));
    }
  }
  // Detect combinational cycles (registers break cycles by construction of
  // the check above, but run the full topological sort to be certain).
  (void)topological_order();
}

std::vector<SignalId> Netlist::topological_order() const {
  // Combinational gates only read earlier ids (enforced in validate), so the
  // natural id order is already topological for the combinational DAG;
  // registers and inputs are sources regardless of position. Emit sources
  // first, then combinational gates in id order.
  std::vector<SignalId> order;
  order.reserve(gates_.size());
  for (SignalId id = 0; id < gates_.size(); ++id) {
    const GateKind k = gates_[id].kind;
    if (k == GateKind::kInput || k == GateKind::kReg || k == GateKind::kConst0 ||
        k == GateKind::kConst1)
      order.push_back(id);
  }
  for (SignalId id = 0; id < gates_.size(); ++id) {
    const GateKind k = gates_[id].kind;
    switch (k) {
      case GateKind::kInput:
      case GateKind::kReg:
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;
      default: {
        // Every combinational fanin must be an earlier id.
        const std::size_t arity = gate_arity(k);
        for (std::size_t i = 0; i < arity; ++i)
          if (gates_[id].fanin[i] >= id)
            throw common::Error(
                "topological_order: combinational cycle or forward ref at " +
                signal_name(id));
        order.push_back(id);
      }
    }
  }
  return order;
}

}  // namespace sca::netlist
