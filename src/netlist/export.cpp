#include "src/netlist/export.hpp"

#include <cctype>
#include <sstream>

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::netlist {

namespace {

// Verilog/DOT-safe identifier for a signal.
std::string ident(const Netlist& nl, SignalId id) {
  std::string name;
  if (auto n = nl.explicit_name(id)) {
    name = *n;
    for (char& c : name)
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
    name += common::make_name("_s", id);
  } else {
    name = common::make_name("n", id);
  }
  return name;
}

}  // namespace

std::string to_dot(const Netlist& nl, const std::string& graph_name,
                   std::size_t max_gates) {
  common::require(max_gates == 0 || nl.size() <= max_gates,
                  "to_dot: netlist exceeds max_gates guard");
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n";
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Gate& g = nl.gate(id);
    std::string shape = "ellipse";
    std::string label = std::string(gate_kind_name(g.kind));
    switch (g.kind) {
      case GateKind::kInput:
        shape = "invhouse";
        label = nl.signal_name(id);
        break;
      case GateKind::kReg:
        shape = "box";
        break;
      case GateKind::kConst0:
      case GateKind::kConst1:
        shape = "plaintext";
        break;
      default:
        if (auto n = nl.explicit_name(id)) label += "\\n" + *n;
    }
    os << "  " << ident(nl, id) << " [shape=" << shape << ", label=\"" << label
       << "\"];\n";
    const std::size_t arity = gate_arity(g.kind);
    for (std::size_t i = 0; i < arity; ++i)
      os << "  " << ident(nl, g.fanin[i]) << " -> " << ident(nl, id) << ";\n";
  }
  for (const auto& out : nl.outputs()) {
    os << "  out_" << out.name << " [shape=house, label=\"" << out.name
       << "\"];\n";
    os << "  " << ident(nl, out.signal) << " -> out_" << out.name << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_verilog(const Netlist& nl, const std::string& module_name) {
  std::ostringstream os;
  os << "module " << module_name << " (\n  input wire clk";
  for (const auto& in : nl.inputs()) os << ",\n  input wire " << ident(nl, in.signal);
  for (const auto& out : nl.outputs()) os << ",\n  output wire " << out.name;
  os << "\n);\n\n";

  std::vector<SignalId> regs = nl.registers();
  for (SignalId id = 0; id < nl.size(); ++id) {
    const GateKind k = nl.kind(id);
    if (k == GateKind::kInput) continue;
    os << (k == GateKind::kReg ? "  reg  " : "  wire ") << ident(nl, id) << ";\n";
  }
  os << "\n";

  auto in0 = [&](SignalId id) { return ident(nl, nl.gate(id).fanin[0]); };
  auto in1 = [&](SignalId id) { return ident(nl, nl.gate(id).fanin[1]); };
  auto in2 = [&](SignalId id) { return ident(nl, nl.gate(id).fanin[2]); };

  for (SignalId id = 0; id < nl.size(); ++id) {
    const std::string lhs = ident(nl, id);
    switch (nl.kind(id)) {
      case GateKind::kInput:
      case GateKind::kReg:
        break;
      case GateKind::kConst0:
        os << "  assign " << lhs << " = 1'b0;\n";
        break;
      case GateKind::kConst1:
        os << "  assign " << lhs << " = 1'b1;\n";
        break;
      case GateKind::kBuf:
        os << "  assign " << lhs << " = " << in0(id) << ";\n";
        break;
      case GateKind::kNot:
        os << "  assign " << lhs << " = ~" << in0(id) << ";\n";
        break;
      case GateKind::kAnd:
        os << "  assign " << lhs << " = " << in0(id) << " & " << in1(id) << ";\n";
        break;
      case GateKind::kNand:
        os << "  assign " << lhs << " = ~(" << in0(id) << " & " << in1(id) << ");\n";
        break;
      case GateKind::kOr:
        os << "  assign " << lhs << " = " << in0(id) << " | " << in1(id) << ";\n";
        break;
      case GateKind::kNor:
        os << "  assign " << lhs << " = ~(" << in0(id) << " | " << in1(id) << ");\n";
        break;
      case GateKind::kXor:
        os << "  assign " << lhs << " = " << in0(id) << " ^ " << in1(id) << ";\n";
        break;
      case GateKind::kXnor:
        os << "  assign " << lhs << " = ~(" << in0(id) << " ^ " << in1(id) << ");\n";
        break;
      case GateKind::kMux:
        os << "  assign " << lhs << " = " << in0(id) << " ? " << in2(id) << " : "
           << in1(id) << ";\n";
        break;
    }
  }

  if (!regs.empty()) {
    os << "\n  always @(posedge clk) begin\n";
    for (SignalId r : regs)
      os << "    " << ident(nl, r) << " <= " << in0(r) << ";\n";
    os << "  end\n";
  }

  os << "\n";
  for (const auto& out : nl.outputs())
    os << "  assign " << out.name << " = " << ident(nl, out.signal) << ";\n";
  os << "\nendmodule\n";
  return os.str();
}

std::string to_json(const Netlist& nl) {
  std::ostringstream os;
  os << "{\n  \"gates\": [\n";
  for (SignalId id = 0; id < nl.size(); ++id) {
    const Gate& g = nl.gate(id);
    os << "    {\"id\": " << id << ", \"kind\": \"" << gate_kind_name(g.kind)
       << "\", \"fanin\": [";
    const std::size_t arity = gate_arity(g.kind);
    for (std::size_t i = 0; i < arity; ++i) {
      if (i) os << ", ";
      os << g.fanin[i];
    }
    os << "]";
    if (auto n = nl.explicit_name(id)) os << ", \"name\": \"" << *n << "\"";
    os << "}" << (id + 1 < nl.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"inputs\": [\n";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const auto& in = nl.inputs()[i];
    os << "    {\"signal\": " << in.signal << ", \"role\": \""
       << (in.role == InputRole::kShare
               ? "share"
               : in.role == InputRole::kRandom ? "random" : "control")
       << "\"";
    if (in.role == InputRole::kShare)
      os << ", \"secret\": " << in.share.secret << ", \"share\": "
         << in.share.share << ", \"bit\": " << in.share.bit;
    os << "}" << (i + 1 < nl.inputs().size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"outputs\": [\n";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const auto& out = nl.outputs()[i];
    os << "    {\"name\": \"" << out.name << "\", \"signal\": " << out.signal
       << "}" << (i + 1 < nl.outputs().size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace sca::netlist
