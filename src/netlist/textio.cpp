#include "src/netlist/textio.hpp"

#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::netlist {

using common::require;

std::string write_snl(const Netlist& nl) {
  std::ostringstream os;
  os << "# SNL netlist, " << nl.size() << " signals\n";
  auto sid = [](SignalId id) { return common::make_name("n", id); };

  for (SignalId id = 0; id < nl.size(); ++id) {
    const Gate& g = nl.gate(id);
    switch (g.kind) {
      case GateKind::kInput: {
        const InputInfo* info = nullptr;
        for (const auto& in : nl.inputs())
          if (in.signal == id) info = &in;
        SCA_ASSERT(info != nullptr, "write_snl: input without InputInfo");
        os << "input " << sid(id) << ' ';
        switch (info->role) {
          case InputRole::kControl: os << "control"; break;
          case InputRole::kRandom: os << "random"; break;
          case InputRole::kShare:
            os << "share " << info->share.secret << ' ' << info->share.share
               << ' ' << info->share.bit;
            break;
        }
        os << '\n';
        break;
      }
      case GateKind::kConst0:
        os << "const " << sid(id) << " 0\n";
        break;
      case GateKind::kConst1:
        os << "const " << sid(id) << " 1\n";
        break;
      case GateKind::kReg:
        os << "reg " << sid(id) << ' ' << sid(g.fanin[0]) << '\n';
        break;
      default: {
        os << "gate " << sid(id) << ' ' << gate_kind_name(g.kind);
        const std::size_t arity = gate_arity(g.kind);
        for (std::size_t i = 0; i < arity; ++i) os << ' ' << sid(g.fanin[i]);
        os << '\n';
      }
    }
    if (auto n = nl.explicit_name(id)) os << "name " << sid(id) << ' ' << *n << '\n';
    if (g.kind == GateKind::kReg) {
      if (const StateAnnotation* a = nl.register_annotation(id)) {
        os << "state " << sid(id) << ' ';
        if (a->role == StateRole::kShare)
          os << "share " << a->label.secret << ' ' << a->label.share << ' '
             << a->label.bit;
        else
          os << "public";
        os << '\n';
      }
    }
  }
  for (const auto& [group, name] : nl.named_state_groups())
    os << "stategroup " << group << ' ' << name << '\n';
  for (const auto& [group, name] : nl.named_secret_groups())
    os << "secretgroup " << group << ' ' << name << '\n';
  for (const auto& bus : nl.nonzero_buses()) {
    os << "nonzerobus";
    for (const SignalId id : bus) os << ' ' << sid(id);
    os << '\n';
  }
  for (const auto& sharing : nl.nonzero_sharings()) {
    os << "nonzerosharing " << sharing.size();
    for (const auto& share : sharing)
      for (const SignalId id : share) os << ' ' << sid(id);
    os << '\n';
  }
  for (const GfGadget& g : nl.gf_gadgets()) {
    os << "gfgadget " << gf_gadget_kind_name(g.kind);
    for (const auto* bus : {&g.out, &g.a, &g.b})
      for (const SignalId id : *bus) os << ' ' << sid(id);
    os << '\n';
  }
  for (const auto& out : nl.outputs())
    os << "output " << out.name << ' ' << sid(out.signal) << '\n';
  return os.str();
}

namespace {

GateKind kind_from_name(const std::string& s, std::size_t line_no) {
  for (GateKind k :
       {GateKind::kBuf, GateKind::kNot, GateKind::kAnd, GateKind::kNand,
        GateKind::kOr, GateKind::kNor, GateKind::kXor, GateKind::kXnor,
        GateKind::kMux})
    if (s == gate_kind_name(k)) return k;
  throw common::Error("parse_snl line " + std::to_string(line_no) +
                      ": unknown gate kind '" + s + "'");
}

struct Statement {
  std::size_t line_no = 0;
  std::vector<std::string> tokens;
};

}  // namespace

Netlist parse_snl(const std::string& text) {
  // Pass 1: tokenize and assign signal ids in statement order.
  std::vector<Statement> statements;
  std::unordered_map<std::string, SignalId> ids;
  {
    std::istringstream is(text);
    std::string line;
    std::size_t line_no = 0;
    SignalId next_id = 0;
    while (std::getline(is, line)) {
      ++line_no;
      if (auto pos = line.find('#'); pos != std::string::npos) line.resize(pos);
      std::istringstream ls(line);
      Statement st;
      st.line_no = line_no;
      std::string tok;
      while (ls >> tok) st.tokens.push_back(tok);
      if (st.tokens.empty()) continue;
      const std::string& verb = st.tokens[0];
      if (verb == "input" || verb == "const" || verb == "gate" || verb == "reg") {
        require(st.tokens.size() >= 2, "parse_snl line " +
                                           std::to_string(line_no) +
                                           ": missing signal id");
        require(!ids.contains(st.tokens[1]),
                "parse_snl line " + std::to_string(line_no) + ": duplicate id '" +
                    st.tokens[1] + "'");
        ids[st.tokens[1]] = next_id++;
      }
      statements.push_back(std::move(st));
    }
  }

  auto resolve = [&ids](const std::string& name, std::size_t line_no) {
    auto it = ids.find(name);
    require(it != ids.end(), "parse_snl line " + std::to_string(line_no) +
                                 ": unknown signal '" + name + "'");
    return it->second;
  };
  auto to_u32 = [](const std::string& s, std::size_t line_no) {
    try {
      return static_cast<std::uint32_t>(std::stoul(s));
    } catch (const std::exception&) {
      throw common::Error("parse_snl line " + std::to_string(line_no) +
                          ": expected number, got '" + s + "'");
    }
  };

  // Pass 2: build. Registers get placeholders first so they may reference
  // later statements.
  Netlist nl;
  std::vector<std::pair<SignalId, Statement>> pending_regs;
  for (const Statement& st : statements) {
    const auto& t = st.tokens;
    const std::string& verb = t[0];
    if (verb == "input") {
      require(t.size() >= 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": input needs a role");
      if (t[2] == "control") {
        nl.add_input(InputRole::kControl, t[1]);
      } else if (t[2] == "random") {
        nl.add_input(InputRole::kRandom, t[1]);
      } else if (t[2] == "share") {
        require(t.size() == 6, "parse_snl line " + std::to_string(st.line_no) +
                                   ": share needs secret/share/bit");
        nl.add_input(InputRole::kShare, t[1],
                     ShareLabel{to_u32(t[3], st.line_no), to_u32(t[4], st.line_no),
                                to_u32(t[5], st.line_no)});
      } else {
        throw common::Error("parse_snl line " + std::to_string(st.line_no) +
                            ": unknown input role '" + t[2] + "'");
      }
    } else if (verb == "const") {
      require(t.size() == 3 && (t[2] == "0" || t[2] == "1"),
              "parse_snl line " + std::to_string(st.line_no) +
                  ": const needs 0 or 1");
      nl.constant(t[2] == "1");
    } else if (verb == "gate") {
      require(t.size() >= 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": gate needs a kind");
      const GateKind k = kind_from_name(t[2], st.line_no);
      const std::size_t arity = gate_arity(k);
      require(t.size() == 3 + arity, "parse_snl line " +
                                         std::to_string(st.line_no) +
                                         ": wrong operand count");
      SignalId a = resolve(t[3], st.line_no);
      SignalId b = arity >= 2 ? resolve(t[4], st.line_no) : kNoSignal;
      SignalId c = arity >= 3 ? resolve(t[5], st.line_no) : kNoSignal;
      nl.add_gate(k, a, b, c);
    } else if (verb == "reg") {
      require(t.size() == 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": reg needs one operand");
      const SignalId r = nl.make_reg_placeholder();
      pending_regs.emplace_back(r, st);
    } else if (verb == "output") {
      require(t.size() == 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": output needs name and signal");
      nl.add_output(t[1], resolve(t[2], st.line_no));
    } else if (verb == "state") {
      require(t.size() >= 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": state needs signal and role");
      const SignalId reg = resolve(t[1], st.line_no);
      if (t[2] == "public") {
        nl.annotate_register(reg, StateRole::kPublic);
      } else if (t[2] == "share") {
        require(t.size() == 6, "parse_snl line " + std::to_string(st.line_no) +
                                   ": state share needs group/share/bit");
        nl.annotate_register(
            reg, StateRole::kShare,
            ShareLabel{to_u32(t[3], st.line_no), to_u32(t[4], st.line_no),
                       to_u32(t[5], st.line_no)});
      } else {
        throw common::Error("parse_snl line " + std::to_string(st.line_no) +
                            ": unknown state role '" + t[2] + "'");
      }
    } else if (verb == "stategroup" || verb == "secretgroup") {
      require(t.size() >= 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": " + verb + " needs group and name");
      std::string full = t[2];
      for (std::size_t i = 3; i < t.size(); ++i) full += " " + t[i];
      if (verb == "stategroup")
        nl.set_state_group_name(to_u32(t[1], st.line_no), full);
      else
        nl.set_secret_group_name(to_u32(t[1], st.line_no), full);
    } else if (verb == "nonzerobus") {
      require(t.size() == 9, "parse_snl line " + std::to_string(st.line_no) +
                                 ": nonzerobus needs 8 signals");
      std::vector<SignalId> bus;
      for (std::size_t i = 1; i < t.size(); ++i)
        bus.push_back(resolve(t[i], st.line_no));
      nl.add_nonzero_bus(std::move(bus));
    } else if (verb == "nonzerosharing") {
      require(t.size() >= 2, "parse_snl line " + std::to_string(st.line_no) +
                                 ": nonzerosharing needs a share count");
      const std::uint32_t shares = to_u32(t[1], st.line_no);
      require(t.size() == 2 + std::size_t{shares} * 8,
              "parse_snl line " + std::to_string(st.line_no) +
                  ": nonzerosharing needs 8 signals per share");
      std::vector<std::vector<SignalId>> sharing(shares);
      for (std::uint32_t s = 0; s < shares; ++s)
        for (std::size_t b = 0; b < 8; ++b)
          sharing[s].push_back(resolve(t[2 + s * 8 + b], st.line_no));
      nl.add_nonzero_sharing(std::move(sharing));
    } else if (verb == "gfgadget") {
      require(t.size() >= 2, "parse_snl line " + std::to_string(st.line_no) +
                                 ": gfgadget needs a kind");
      GfGadget g;
      if (t[1] == gf_gadget_kind_name(GfGadgetKind::kMul))
        g.kind = GfGadgetKind::kMul;
      else if (t[1] == gf_gadget_kind_name(GfGadgetKind::kInv))
        g.kind = GfGadgetKind::kInv;
      else if (t[1] == gf_gadget_kind_name(GfGadgetKind::kSquare))
        g.kind = GfGadgetKind::kSquare;
      else
        throw common::Error("parse_snl line " + std::to_string(st.line_no) +
                            ": unknown gfgadget kind '" + t[1] + "'");
      const std::size_t buses = g.kind == GfGadgetKind::kMul ? 3 : 2;
      require(t.size() == 2 + buses * 8,
              "parse_snl line " + std::to_string(st.line_no) +
                  ": gfgadget needs " + std::to_string(buses) + " 8-bit buses");
      for (std::size_t b = 0; b < 8; ++b)
        g.out.push_back(resolve(t[2 + b], st.line_no));
      for (std::size_t b = 0; b < 8; ++b)
        g.a.push_back(resolve(t[10 + b], st.line_no));
      if (buses == 3)
        for (std::size_t b = 0; b < 8; ++b)
          g.b.push_back(resolve(t[18 + b], st.line_no));
      nl.add_gf_gadget(std::move(g));
    } else if (verb == "name") {
      require(t.size() >= 3, "parse_snl line " + std::to_string(st.line_no) +
                                 ": name needs signal and string");
      std::string full = t[2];
      for (std::size_t i = 3; i < t.size(); ++i) full += " " + t[i];
      nl.name_signal(resolve(t[1], st.line_no), full);
    } else {
      throw common::Error("parse_snl line " + std::to_string(st.line_no) +
                          ": unknown statement '" + verb + "'");
    }
  }
  for (const auto& [reg_id, st] : pending_regs)
    nl.connect_reg(reg_id, resolve(st.tokens[2], st.line_no));

  nl.validate();
  return nl;
}

}  // namespace sca::netlist
