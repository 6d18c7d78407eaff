#include "src/lint/lattice.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <tuple>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/thread_pool.hpp"
#include "src/gf/gf256.hpp"

namespace sca::lint {

using common::require;
using netlist::GateKind;
using netlist::GfGadget;
using netlist::GfGadgetKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

bool is_const(const Netlist& nl, SignalId id) {
  const GateKind k = nl.kind(id);
  return k == GateKind::kConst0 || k == GateKind::kConst1;
}

/// Collects the combinational cone of `g.out` over the *original* netlist,
/// descending only until the declared operand bits (the gadget's leaves).
/// Returns false when an endpoint was pinned to a constant (a sliced-away
/// annotation — void, not wrong); throws common::Error when the cone
/// escapes to an input or register that is not a declared operand, i.e. the
/// annotation does not describe a combinational function of its operands.
bool gadget_cone(const Netlist& nl, const GfGadget& g,
                 std::vector<SignalId>& cone) {
  std::vector<SignalId> leaves = g.a;
  leaves.insert(leaves.end(), g.b.begin(), g.b.end());
  for (const SignalId s : g.out)
    if (is_const(nl, s)) return false;
  for (const SignalId s : leaves)
    if (is_const(nl, s)) return false;
  std::sort(leaves.begin(), leaves.end());
  const auto is_leaf = [&](SignalId s) {
    return std::binary_search(leaves.begin(), leaves.end(), s);
  };

  cone.clear();
  std::vector<bool> seen(nl.size(), false);
  std::vector<SignalId> stack(g.out.begin(), g.out.end());
  while (!stack.empty()) {
    const SignalId id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    if (is_leaf(id)) continue;
    const netlist::Gate& gate = nl.gate(id);
    require(gate.kind != GateKind::kInput && gate.kind != GateKind::kReg,
            "gf gadget annotation on " + nl.signal_name(g.out[0]) +
                ": cone reaches non-operand sequential/input signal " +
                nl.signal_name(id));
    cone.push_back(id);
    for (std::size_t k = 0; k < netlist::gate_arity(gate.kind); ++k)
      stack.push_back(gate.fanin[k]);
  }
  std::sort(cone.begin(), cone.end());  // ascending ids = topological
  return true;
}

/// Golden bit-planes of one gadget kind over its exhaustive operand
/// enumeration. Block k holds the 64 assignments idx = 64k + lane, with
/// a = idx & 0xff (and b = idx >> 8 for MUL); plane[bit][k] has bit `lane`
/// set when bit `bit` of the operand index (`operand`) or of the golden
/// result (`result`) is set for that assignment.
struct GoldenPlanes {
  std::size_t blocks = 0;
  std::vector<std::uint64_t> operand;  ///< [bit * blocks + k], bits 0..15
  std::vector<std::uint64_t> result;   ///< [bit * blocks + k], bits 0..7

  explicit GoldenPlanes(GfGadgetKind kind)
      : blocks(kind == GfGadgetKind::kMul ? (std::size_t{1} << 16) / 64 : 4),
        operand(16 * blocks, 0),
        result(8 * blocks, 0) {
    for (std::size_t idx = 0; idx < 64 * blocks; ++idx) {
      const auto a = static_cast<std::uint8_t>(idx & 0xff);
      const auto b = static_cast<std::uint8_t>(idx >> 8);
      std::uint8_t expect = 0;
      switch (kind) {
        case GfGadgetKind::kMul:
          expect = gf::gf256_mul(a, b);
          break;
        case GfGadgetKind::kInv:
          expect = gf::gf256_inv(a);
          break;
        case GfGadgetKind::kSquare:
          expect = gf::gf256_mul(a, a);
          break;
      }
      const std::size_t k = idx / 64;
      const std::uint64_t lane = std::uint64_t{1} << (idx % 64);
      for (std::size_t bit = 0; bit < 16; ++bit)
        if ((idx >> bit) & 1u) operand[bit * blocks + k] |= lane;
      for (std::size_t bit = 0; bit < 8; ++bit)
        if ((expect >> bit) & 1u) result[bit * blocks + k] |= lane;
    }
  }

  static const GoldenPlanes& of(GfGadgetKind kind) {
    static const GoldenPlanes mul(GfGadgetKind::kMul);
    static const GoldenPlanes inv(GfGadgetKind::kInv);
    static const GoldenPlanes square(GfGadgetKind::kSquare);
    switch (kind) {
      case GfGadgetKind::kMul:
        return mul;
      case GfGadgetKind::kInv:
        return inv;
      case GfGadgetKind::kSquare:
        break;
    }
    return square;
  }
};

/// Exhaustive bit-parallel check that the gadget's cone computes the golden
/// GF(2^8) function of its operands (2^16 assignments for MUL, 2^8 for
/// INV/SQUARE), on values local to the cone: slots 0..7 drive a, 8..15
/// drive b, and slot 16 + i holds cone[i]. Throws common::Error on any
/// mismatch.
void check_gadget(const Netlist& nl, const GfGadget& g,
                  const std::vector<SignalId>& cone) {
  const bool binary = g.kind == GfGadgetKind::kMul;
  const GoldenPlanes& golden = GoldenPlanes::of(g.kind);

  // Signal -> local slot. Operand bits are listed a0, b0, a1, b1, ... so a
  // signal declared in both operands reads as its last declaration.
  std::vector<std::pair<SignalId, std::uint32_t>> slot_of;
  for (std::uint32_t i = 0; i < 8; ++i) {
    slot_of.emplace_back(g.a[i], i);
    if (binary) slot_of.emplace_back(g.b[i], 8 + i);
  }
  std::reverse(slot_of.begin(), slot_of.end());
  std::stable_sort(slot_of.begin(), slot_of.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  slot_of.erase(std::unique(slot_of.begin(), slot_of.end(),
                            [](const auto& x, const auto& y) {
                              return x.first == y.first;
                            }),
                slot_of.end());
  for (std::uint32_t i = 0; i < cone.size(); ++i)
    slot_of.emplace_back(cone[i], 16 + i);
  std::sort(slot_of.begin(), slot_of.end());
  const auto slot = [&](SignalId s) {
    const auto it = std::lower_bound(
        slot_of.begin(), slot_of.end(), s,
        [](const auto& entry, SignalId id) { return entry.first < id; });
    SCA_ASSERT(it != slot_of.end() && it->first == s,
               "gf gadget signal outside its cone");
    return it->second;
  };

  struct LocalGate {
    GateKind kind;
    std::uint32_t fanin[3];
  };
  std::vector<LocalGate> gates(cone.size());
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const netlist::Gate& gate = nl.gate(cone[i]);
    gates[i].kind = gate.kind;
    for (std::size_t k = 0; k < netlist::gate_arity(gate.kind); ++k)
      gates[i].fanin[k] = slot(gate.fanin[k]);
  }
  std::array<std::uint32_t, 8> out_slot{};
  for (std::size_t i = 0; i < 8; ++i) out_slot[i] = slot(g.out[i]);

  std::vector<std::uint64_t> val(16 + cone.size(), 0);
  for (std::size_t k = 0; k < golden.blocks; ++k) {
    for (std::size_t i = 0; i < 8; ++i) {
      val[i] = golden.operand[i * golden.blocks + k];
      val[8 + i] = golden.operand[(8 + i) * golden.blocks + k];
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const LocalGate& gate = gates[i];
      const auto in = [&](std::size_t j) { return val[gate.fanin[j]]; };
      std::uint64_t& v = val[16 + i];
      switch (gate.kind) {
        case GateKind::kConst0:
          v = 0;
          break;
        case GateKind::kConst1:
          v = ~std::uint64_t{0};
          break;
        case GateKind::kBuf:
          v = in(0);
          break;
        case GateKind::kNot:
          v = ~in(0);
          break;
        case GateKind::kAnd:
          v = in(0) & in(1);
          break;
        case GateKind::kNand:
          v = ~(in(0) & in(1));
          break;
        case GateKind::kOr:
          v = in(0) | in(1);
          break;
        case GateKind::kNor:
          v = ~(in(0) | in(1));
          break;
        case GateKind::kXor:
          v = in(0) ^ in(1);
          break;
        case GateKind::kXnor:
          v = ~(in(0) ^ in(1));
          break;
        case GateKind::kMux:
          v = (~in(0) & in(1)) | (in(0) & in(2));
          break;
        case GateKind::kInput:
        case GateKind::kReg:
          SCA_ASSERT(false, "gf gadget cone contains sequential signal");
      }
    }
    for (std::size_t bit = 0; bit < 8; ++bit)
      if (val[out_slot[bit]] != golden.result[bit * golden.blocks + k])
        throw common::Error(
            "gf gadget annotation on " + nl.signal_name(g.out[0]) +
            ": circuit disagrees with " +
            std::string(netlist::gf_gadget_kind_name(g.kind)) +
            " golden arithmetic");
  }
}

/// True when every bit of `b` traces through kBuf/kReg chains (bit aligned,
/// no inversion) to the corresponding bit of one annotated nonzero bus.
bool traces_to_nonzero_bus(const Netlist& nl, const std::vector<SignalId>& b) {
  if (b.size() != 8) return false;
  std::array<SignalId, 8> root{};
  for (std::size_t i = 0; i < 8; ++i) {
    SignalId s = b[i];
    while (nl.kind(s) == GateKind::kBuf || nl.kind(s) == GateKind::kReg)
      s = nl.gate(s).fanin[0];
    root[i] = s;
  }
  for (const auto& bus : nl.nonzero_buses()) {
    bool match = true;
    for (std::size_t i = 0; i < 8 && match; ++i) match = bus[i] == root[i];
    if (match) return true;
  }
  return false;
}

/// Compressed rows keyed by unrolled signal: offsets[s] .. offsets[s + 1]
/// index the entries of signal s.
template <typename T>
void build_index(std::size_t signals,
                 std::vector<std::pair<SignalId, T>> pairs,
                 std::vector<std::uint32_t>& offsets, std::vector<T>& entries) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  offsets.assign(signals + 1, 0);
  for (const auto& [signal, entry] : pairs) ++offsets[signal + 1];
  for (std::size_t s = 0; s < signals; ++s) offsets[s + 1] += offsets[s];
  entries.clear();
  entries.reserve(pairs.size());
  for (auto& pair : pairs) entries.push_back(std::move(pair.second));
}

/// One cone node with cone-local fanin positions.
struct Node {
  GateKind kind = GateKind::kConst0;
  std::uint8_t arity = 0;
  std::array<std::uint32_t, 3> fanin{};
  std::uint32_t var = kNone;  ///< leaf variable of an input node
};

/// A tuple-local lattice variable. Leaf variables are the share/fresh
/// inputs present in the cone (control inputs are public and treated as
/// constants); the rest are virtual pads created by cuts and gadget rules.
struct Var {
  bool fresh = false;    ///< fresh input or virtual
  bool padable = true;   ///< usable as an XOR one-time pad
  SignalId input = netlist::kNoSignal;  ///< unrolled input (leaves only)
};

/// A share variable filed under its sharing instance (secret, bit, cycle).
struct ShareMember {
  std::uint32_t secret = 0;
  std::uint32_t bit = 0;
  std::size_t cycle = 0;
  std::uint32_t share = 0;
  std::size_t var = 0;

  bool same_instance(const ShareMember& o) const {
    return secret == o.secret && bit == o.bit && cycle == o.cycle;
  }
  bool operator<(const ShareMember& o) const {
    return std::tie(secret, bit, cycle, share, var) <
           std::tie(o.secret, o.bit, o.cycle, o.share, o.var);
  }
};

bool test_bit(const std::uint64_t* words, std::size_t v) {
  return (words[v >> 6] >> (v & 63)) & 1u;
}

void set_bit(std::uint64_t* words, std::size_t v) {
  words[v >> 6] |= std::uint64_t{1} << (v & 63);
}

}  // namespace

TupleAnalyzer::TupleAnalyzer(const Netlist& original,
                             const verif::Unrolled& unrolled, unsigned threads)
    : original_(&original),
      unrolled_(&unrolled),
      debug_(std::getenv("SCA_LINT_DEBUG") != nullptr) {
  require(unrolled.cycles > 0, "TupleAnalyzer: empty unrolling");
  last_cycle_ = unrolled.cycles - 1;
  const Netlist& unl = unrolled.nl;
  input_index_.assign(unl.size(), SIZE_MAX);
  const auto& inputs = unl.inputs();
  input_nonzero_.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    input_index_[inputs[i].signal] = i;
    input_nonzero_[i] = inputs[i].role == InputRole::kRandom &&
                        original.in_nonzero_bus(unrolled.input_original[i]);
  }
  for (std::uint32_t s = 0; s < original.secret_group_count(); ++s)
    share_counts_.push_back(original.share_count(s));

  // Re-verify every byte-level gadget annotation before any rule may rely
  // on it: structural containment + exhaustive functional equivalence. The
  // gadgets are independent, so they are checked in parallel; the first
  // failing gadget in declaration order is reported.
  const std::vector<GfGadget>& gadgets = original.gf_gadgets();
  std::vector<char> live(gadgets.size(), 0);
  std::vector<std::string> errors(gadgets.size());
  common::parallel_for(gadgets.size(), threads, [&](std::size_t i) {
    try {
      std::vector<SignalId> cone;
      if (!gadget_cone(original, gadgets[i], cone)) return;  // sliced away
      check_gadget(original, gadgets[i], cone);
      live[i] = 1;
    } catch (const common::Error& e) {
      errors[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    if (!errors[i].empty()) throw common::Error(errors[i]);
    if (!live[i]) continue;
    const GfGadget& g = gadgets[i];
    if (g.kind == GfGadgetKind::kMul)
      mul_sites_.push_back({&g, traces_to_nonzero_bus(original, g.b)});
    else
      unary_sites_.push_back({&g});
  }

  // Match each annotated nonzero sharing with verified multipliers: one mul
  // per share bus against a common factor bus that traces to a nonzero
  // mask. Sharings without such a product family enable nothing.
  for (const auto& sharing : original.nonzero_sharings()) {
    const std::size_t S = sharing.size();
    std::map<std::vector<SignalId>, std::vector<std::size_t>> by_factor;
    for (std::size_t j = 0; j < S; ++j)
      for (std::size_t s = 0; s < mul_sites_.size(); ++s) {
        if (mul_sites_[s].gadget->a != sharing[j]) continue;
        auto& slots = by_factor[mul_sites_[s].gadget->b];
        if (slots.empty()) slots.assign(S, SIZE_MAX);
        if (slots[j] == SIZE_MAX) slots[j] = s;
      }
    for (const auto& [factor, slots] : by_factor) {
      if (std::find(slots.begin(), slots.end(), SIZE_MAX) != slots.end())
        continue;
      if (!mul_sites_[slots.front()].factor_nonzero) continue;
      families_.push_back(Family{slots});
    }
  }

  // Index the rule instances and nonzero-bus instances by unrolled signal,
  // so a tuple finds the ones its cone touches in time linear in the cone.
  std::vector<std::pair<SignalId, RuleInst>> rule_pairs;
  const auto add_outputs = [&](const GfGadget& g, RuleInst inst) {
    for (const SignalId s : g.out) {
      const SignalId id = unrolled.map[inst.cycle][s];
      if (id != netlist::kNoSignal) rule_pairs.emplace_back(id, inst);
    }
  };
  std::vector<std::pair<SignalId, std::array<SignalId, 8>>> nonzero_pairs;
  for (std::uint32_t c = 0; c <= last_cycle_; ++c) {
    for (std::uint32_t fi = 0; fi < families_.size(); ++fi)
      for (const std::size_t s : families_[fi].mul_sites)
        add_outputs(*mul_sites_[s].gadget, {c, RuleInst::Kind::kFamily, fi});
    for (std::uint32_t si = 0; si < mul_sites_.size(); ++si)
      if (mul_sites_[si].factor_nonzero)
        add_outputs(*mul_sites_[si].gadget, {c, RuleInst::Kind::kMul, si});
    for (std::uint32_t si = 0; si < unary_sites_.size(); ++si)
      add_outputs(*unary_sites_[si].gadget, {c, RuleInst::Kind::kUnary, si});
    for (const auto& bus : original.nonzero_buses()) {
      std::array<SignalId, 8> ids{};
      bool ok = true;
      for (std::size_t i = 0; i < 8 && ok; ++i) {
        ids[i] = unrolled.map[c][bus[i]];
        ok = ids[i] != netlist::kNoSignal;
      }
      if (ok) nonzero_pairs.emplace_back(ids[0], ids);
    }
  }
  build_index(unl.size(), std::move(rule_pairs), rule_offsets_, rule_insts_);
  build_index(unl.size(), std::move(nonzero_pairs), nonzero_offsets_,
              nonzero_instances_);
}

/// Buffers of one analyze() call, kept per thread so that a tuple costs no
/// allocation once they have grown to the largest cone seen.
struct TupleAnalyzer::Scratch {
  // Whole-netlist maps; an entry is valid when its stamp equals `epoch`,
  // so starting a new cone costs nothing.
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> pos;  ///< unrolled signal -> cone position
  std::uint32_t epoch = 0;

  std::vector<SignalId> element_ids;
  std::vector<SignalId> stack;
  std::vector<SignalId> cone;  ///< ascending unrolled ids = topological
  std::vector<Node> nodes;
  std::vector<std::uint32_t> elements;  ///< cone position per tuple element
  std::vector<Var> vars;
  std::vector<std::uint32_t> leaf_pos;  ///< cone position per leaf variable
  std::vector<ShareMember> members;
  std::vector<RuleInst> insts;
  std::vector<std::array<std::size_t, 8>> nonzero_groups;

  /// (L, N) of every node: node i owns words [2iW, 2iW + W) for L and the
  /// next W for N, W = Pass::width_.
  std::vector<std::uint64_t> arena;
  std::vector<std::uint64_t> spare;  ///< widening target
  std::vector<std::uint64_t> tmp;    ///< one node's (L, N) under refresh
  std::vector<std::uint64_t> sup;    ///< one variable set
  std::vector<std::uint64_t> rows;   ///< element rows, same layout as arena
  std::vector<char> forced;
  std::vector<char> changed;
  std::vector<std::uint32_t> forced_list;
  std::vector<std::uint32_t> idom;
  std::vector<char> reach;
  std::vector<std::uint32_t> reach_stack;
  std::vector<std::uint32_t> blocked;
  std::vector<std::uint32_t> out_pos;
  std::vector<std::size_t> in_cone;
  std::vector<std::size_t> lin_rows;
  std::vector<char> row_done;
  std::vector<char> contributing;
};

/// One analyze() call: the cone, its lattice state and the OTP/gadget-rule
/// fixpoint, all indexed by cone position on the calling thread's scratch.
class TupleAnalyzer::Pass {
 public:
  Pass(const TupleAnalyzer& analyzer, Scratch& scratch)
      : a_(analyzer), s_(scratch), unl_(analyzer.unrolled_->nl) {}

  TupleVerdict run(const std::vector<TupleElement>& elements) {
    resolve(elements);
    collect_cone();
    collect_vars();
    if (!raw_support_completes()) return TupleVerdict{};
    collect_rules();
    init_lattice();
    fixpoint();
    eliminate_rows();
    return residual();
  }

 private:
  using Byte = std::array<std::size_t, 8>;

  // --- cone and variables ----------------------------------------------------

  void resolve(const std::vector<TupleElement>& elements) {
    s_.element_ids.clear();
    for (const TupleElement& e : elements) {
      if (e.cycle_back > a_.last_cycle_)
        throw common::Error(
            "TupleAnalyzer: cycle_back outside the unroll window");
      const SignalId id =
          a_.unrolled_->map[a_.last_cycle_ - e.cycle_back][e.stable];
      if (id == netlist::kNoSignal)
        throw common::Error(
            "TupleAnalyzer: element depends on the cold start (unroll "
            "deeper)");
      s_.element_ids.push_back(id);
    }
  }

  /// The union combinational cone, ascending by unrolled id (fanins always
  /// precede their gate, so this is a topological order).
  void collect_cone() {
    if (s_.stamp.size() < unl_.size()) {
      s_.stamp.resize(unl_.size(), 0);
      s_.pos.resize(unl_.size());
    }
    if (++s_.epoch == 0) {
      std::fill(s_.stamp.begin(), s_.stamp.end(), 0);
      s_.epoch = 1;
    }
    s_.cone.clear();
    s_.stack.assign(s_.element_ids.begin(), s_.element_ids.end());
    while (!s_.stack.empty()) {
      const SignalId id = s_.stack.back();
      s_.stack.pop_back();
      if (s_.stamp[id] == s_.epoch) continue;
      s_.stamp[id] = s_.epoch;
      s_.cone.push_back(id);
      const netlist::Gate& g = unl_.gate(id);
      for (std::size_t k = 0; k < netlist::gate_arity(g.kind); ++k)
        s_.stack.push_back(g.fanin[k]);
    }
    std::sort(s_.cone.begin(), s_.cone.end());
    n_ = static_cast<std::uint32_t>(s_.cone.size());
    for (std::uint32_t i = 0; i < n_; ++i) s_.pos[s_.cone[i]] = i;
    s_.nodes.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      const netlist::Gate& g = unl_.gate(s_.cone[i]);
      Node& node = s_.nodes[i];
      node.kind = g.kind;
      node.arity = static_cast<std::uint8_t>(netlist::gate_arity(g.kind));
      for (std::size_t k = 0; k < node.arity; ++k)
        node.fanin[k] = s_.pos[g.fanin[k]];
      node.var = kNone;
    }
    s_.elements.clear();
    for (const SignalId id : s_.element_ids) s_.elements.push_back(s_.pos[id]);
  }

  /// Cone position of unrolled signal `id`, kNone outside the cone.
  std::uint32_t pos_of(SignalId id) const {
    return id != netlist::kNoSignal && s_.stamp[id] == s_.epoch ? s_.pos[id]
                                                                : kNone;
  }
  std::uint32_t mapped_pos(SignalId orig, std::size_t cycle) const {
    return pos_of(a_.unrolled_->map[cycle][orig]);
  }

  /// Leaf variables in cone order. Bits of annotated nonzero buses are
  /// fresh but *non-padable*: biased and byte-correlated, they never serve
  /// as XOR one-time pads.
  void collect_vars() {
    s_.vars.clear();
    s_.leaf_pos.clear();
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (s_.nodes[i].kind != GateKind::kInput) continue;
      const std::size_t ii = a_.input_index_[s_.cone[i]];
      const InputRole role = unl_.inputs()[ii].role;
      if (role == InputRole::kControl) continue;
      const bool fresh = role == InputRole::kRandom;
      s_.nodes[i].var = static_cast<std::uint32_t>(s_.vars.size());
      s_.vars.push_back(Var{fresh, !a_.input_nonzero_[ii], s_.cone[i]});
      s_.leaf_pos.push_back(i);
    }
    leaf_vars_ = s_.vars.size();
  }

  /// Files leaf share variable v under its sharing instance.
  ShareMember member(std::size_t v) const {
    const std::size_t ii = a_.input_index_[s_.vars[v].input];
    const netlist::ShareLabel& label = unl_.inputs()[ii].share;
    return ShareMember{label.secret, label.bit, a_.unrolled_->input_cycle[ii],
                       label.share, v};
  }

  /// Sorted members [lo, hi) of one sharing instance reach every share.
  bool completes(std::size_t lo, std::size_t hi) const {
    std::size_t distinct = 0;
    for (std::size_t k = lo; k < hi; ++k)
      distinct += k == lo || s_.members[k].share != s_.members[k - 1].share;
    const std::uint32_t secret = s_.members[lo].secret;
    return distinct >= (secret < a_.share_counts_.size()
                             ? a_.share_counts_[secret]
                             : 0);
  }

  /// Raw non-completeness fast path. The residual support after any
  /// sequence of eliminations is a subset of the raw leaf support, and the
  /// non-completeness verdict needs only independence-from-secrets of the
  /// fresh inputs — so a tuple whose raw leaf support completes no sharing
  /// instance is secure without building any lattice state.
  bool raw_support_completes() {
    s_.members.clear();
    for (std::size_t v = 0; v < leaf_vars_; ++v)
      if (!s_.vars[v].fresh) s_.members.push_back(member(v));
    std::sort(s_.members.begin(), s_.members.end());
    for (std::size_t lo = 0, hi; lo < s_.members.size(); lo = hi) {
      for (hi = lo + 1; hi < s_.members.size() &&
                        s_.members[hi].same_instance(s_.members[lo]);
           ++hi) {
      }
      if (completes(lo, hi)) return true;
    }
    return false;
  }

  /// Rule instances with an output bit in the cone, in (cycle, kind, index)
  /// order, and the nonzero-bus instances whose 8 bits are all cone
  /// variables — the leaf operand class the multiplier/inverse rules
  /// recognize beyond plain fresh-uniform bytes.
  void collect_rules() {
    s_.insts.clear();
    s_.nonzero_groups.clear();
    for (std::uint32_t i = 0; i < n_; ++i) {
      const SignalId id = s_.cone[i];
      s_.insts.insert(s_.insts.end(),
                      a_.rule_insts_.begin() + a_.rule_offsets_[id],
                      a_.rule_insts_.begin() + a_.rule_offsets_[id + 1]);
      for (std::uint32_t k = a_.nonzero_offsets_[id];
           k < a_.nonzero_offsets_[id + 1]; ++k) {
        Byte group{};
        bool ok = true;
        for (std::size_t bit = 0; bit < 8 && ok; ++bit) {
          const std::uint32_t p = pos_of(a_.nonzero_instances_[k][bit]);
          ok = p != kNone && s_.nodes[p].var != kNone;
          if (ok) group[bit] = s_.nodes[p].var;
        }
        if (ok) s_.nonzero_groups.push_back(group);
      }
    }
    std::sort(s_.insts.begin(), s_.insts.end());
    s_.insts.erase(std::unique(s_.insts.begin(), s_.insts.end()),
                   s_.insts.end());
  }

  // --- lattice state -----------------------------------------------------------

  std::uint64_t* lin(std::uint32_t i) {
    return &s_.arena[2 * std::size_t{i} * width_];
  }
  std::uint64_t* nonlin(std::uint32_t i) { return lin(i) + width_; }

  /// Sizes the arena to the leaf variables (it widens on demand) and
  /// computes every node's (L, N).
  void init_lattice() {
    width_ = std::max<std::size_t>(1, common::ceil_div(leaf_vars_, 64));
    s_.arena.assign(2 * n_ * width_, 0);
    s_.forced.assign(n_, 0);
    s_.changed.assign(n_, 0);
    s_.reach.assign(n_, 0);
    s_.forced_list.clear();
    for (std::uint32_t i = 0; i < n_; ++i) eval_node(i, lin(i));
    dirty_from_ = n_;
    dom_valid_ = false;
  }

  /// (L, N) of non-forced node i from its fanins, into out[0, W) and
  /// out[W, 2W).
  void eval_node(std::uint32_t i, std::uint64_t* out) {
    const Node& node = s_.nodes[i];
    const std::size_t w = width_;
    std::uint64_t* l = out;
    std::uint64_t* nl = out + w;
    std::fill_n(out, 2 * w, 0);
    switch (node.kind) {
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;
      case GateKind::kInput:
        if (node.var != kNone) set_bit(l, node.var);
        break;
      case GateKind::kBuf:
      case GateKind::kNot:
        std::copy_n(lin(node.fanin[0]), 2 * w, l);
        break;
      case GateKind::kXor:
      case GateKind::kXnor: {
        const std::uint64_t* a = lin(node.fanin[0]);
        const std::uint64_t* b = lin(node.fanin[1]);
        for (std::size_t j = 0; j < w; ++j) {
          l[j] = a[j] ^ b[j];
          nl[j] = a[w + j] | b[w + j];
        }
        break;
      }
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor:
      case GateKind::kMux:
        for (std::size_t k = 0; k < node.arity; ++k) {
          const std::uint64_t* a = lin(node.fanin[k]);
          for (std::size_t j = 0; j < w; ++j) nl[j] |= a[j] | a[w + j];
        }
        break;
      case GateKind::kReg:
        SCA_ASSERT(false, "TupleAnalyzer: register in unrolled netlist");
    }
  }

  /// A new virtual variable; widens the arena when it no longer fits.
  std::size_t add_var(bool padable) {
    const std::size_t v = s_.vars.size();
    s_.vars.push_back(Var{true, padable, netlist::kNoSignal});
    if (s_.vars.size() > 64 * width_) {
      const std::size_t w = 2 * width_;
      s_.spare.assign(2 * n_ * w, 0);
      for (std::size_t k = 0; k < 2 * std::size_t{n_}; ++k)
        std::copy_n(&s_.arena[k * width_], width_, &s_.spare[k * w]);
      s_.arena.swap(s_.spare);
      width_ = w;
    }
    return v;
  }

  Byte new_byte(bool padable) {
    Byte b{};
    for (std::size_t bit = 0; bit < 8; ++bit) b[bit] = add_var(padable);
    return b;
  }

  /// Rewrites node p to the pure linear combination of `vars`. Takes effect
  /// for the rest of the cone at the next refresh().
  void force(std::uint32_t p, std::span<const std::size_t> vars) {
    s_.forced[p] = 1;
    s_.forced_list.push_back(p);
    std::fill_n(lin(p), 2 * width_, 0);
    for (const std::size_t v : vars) set_bit(lin(p), v);
    s_.changed[p] = 1;
    dirty_from_ = std::min(dirty_from_, p);
  }

  /// Recomputes the fan-out of the nodes forced since the last refresh, up
  /// to where their (L, N) stop changing.
  void refresh() {
    s_.tmp.resize(2 * width_);
    std::uint64_t* t = s_.tmp.data();
    for (std::uint32_t i = dirty_from_; i < n_; ++i) {
      if (s_.forced[i]) continue;
      const Node& node = s_.nodes[i];
      bool dirty = false;
      for (std::size_t k = 0; k < node.arity; ++k)
        dirty = dirty || s_.changed[node.fanin[k]];
      if (!dirty) continue;
      eval_node(i, t);
      if (std::equal(t, t + 2 * width_, lin(i))) continue;
      std::copy_n(t, 2 * width_, lin(i));
      s_.changed[i] = 1;
    }
    if (dirty_from_ < n_)
      std::fill(s_.changed.begin() + dirty_from_, s_.changed.begin() + n_, 0);
    dirty_from_ = n_;
    dom_valid_ = false;
  }

  bool terminal(std::uint32_t p) const {
    return s_.forced[p] || s_.nodes[p].kind == GateKind::kInput;
  }

  /// True when some element depends on variable f.
  bool observed(std::size_t f) {
    for (const std::uint32_t e : s_.elements)
      if (test_bit(lin(e), f) || test_bit(nonlin(e), f)) return true;
    return false;
  }

  // --- dominator-based cut search ---------------------------------------------
  //
  // The graph has a virtual root (position n_) with an edge to every
  // element, and an edge from each non-terminal node to its fanins; forced
  // nodes and inputs are terminals. Edges always descend in cone position,
  // so one sweep from the top computes immediate dominators, and every
  // dominator of a node sits at a strictly larger position.

  /// The nearest common dominator of nodes a and b.
  std::uint32_t meet(std::uint32_t a, std::uint32_t b) const {
    while (a != b) {
      if (a < b)
        a = s_.idom[a];
      else
        b = s_.idom[b];
    }
    return a;
  }

  void build_dominators() {
    if (dom_valid_) return;
    s_.idom.assign(n_, kNone);
    for (const std::uint32_t e : s_.elements) s_.idom[e] = n_;
    for (std::uint32_t u = n_; u-- > 0;) {
      if (s_.idom[u] == kNone || terminal(u)) continue;
      const Node& node = s_.nodes[u];
      for (std::size_t k = 0; k < node.arity; ++k) {
        std::uint32_t& d = s_.idom[node.fanin[k]];
        d = d == kNone ? u : meet(d, u);
      }
    }
    dom_valid_ = true;
  }

  /// The most downstream valid cut node for padable variable f, or kNone.
  /// A node i cuts f when i = f XOR (rest without f) and every reachable
  /// source of f (its input node, or the forced nodes that emit it) lies
  /// below i on every path from the tuple — i.e. i dominates all of them,
  /// so i is an ancestor of their nearest common dominator.
  std::uint32_t find_cut(std::size_t f) {
    build_dominators();
    std::uint32_t lca = kNone;
    const auto add_source = [&](std::uint32_t p) {
      if (s_.idom[p] == kNone) return;  // unreachable from the tuple
      lca = lca == kNone ? p : meet(lca, p);
    };
    if (f < leaf_vars_) add_source(s_.leaf_pos[f]);
    for (const std::uint32_t p : s_.forced_list)
      if (test_bit(lin(p), f)) add_source(p);
    std::uint32_t cut = kNone;
    for (std::uint32_t i = lca; i != kNone && i != n_; i = s_.idom[i]) {
      // Cutting an input node at itself would be a semantic no-op that
      // only obscures which physical fresh bit the residual observes.
      if (terminal(i)) continue;
      if (test_bit(lin(i), f) && !test_bit(nonlin(i), f)) cut = i;
    }
    return cut;
  }

  // --- set-opaque reachability for the byte rules -----------------------------

  /// Backward reachability from the tuple with the `blocked` nodes treated
  /// as blind leaves: reach[p] == 1 when node p influences some element.
  /// Terminals are reached but do not propagate.
  void compute_reach(std::span<const std::uint32_t> blocked) {
    std::fill(s_.reach.begin(), s_.reach.begin() + n_, 0);
    for (const std::uint32_t p : blocked) s_.reach[p] = 2;
    s_.reach_stack.assign(s_.elements.begin(), s_.elements.end());
    while (!s_.reach_stack.empty()) {
      const std::uint32_t p = s_.reach_stack.back();
      s_.reach_stack.pop_back();
      if (s_.reach[p]) continue;
      s_.reach[p] = 1;
      if (terminal(p)) continue;
      const Node& node = s_.nodes[p];
      for (std::size_t k = 0; k < node.arity; ++k)
        s_.reach_stack.push_back(node.fanin[k]);
    }
  }

  /// Variable v reaches the tuple iff one of its sources is reached.
  bool var_reaches(std::size_t v) {
    if (v < leaf_vars_ && s_.reach[s_.leaf_pos[v]] == 1) return true;
    for (const std::uint32_t p : s_.forced_list)
      if (s_.reach[p] == 1 && test_bit(lin(p), v)) return true;
    return false;
  }

  bool matches_nonzero_group(const Byte& g) const {
    return std::find(s_.nonzero_groups.begin(), s_.nonzero_groups.end(), g) !=
           s_.nonzero_groups.end();
  }

  /// Reads an operand bus at a cycle as a pure byte of distinct single
  /// variables (bit b == exactly one lattice variable, no nonlinear part).
  bool operand_byte(const std::vector<SignalId>& bus, std::size_t cycle,
                    Byte& out) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::uint32_t p = mapped_pos(bus[bit], cycle);
      if (p == kNone) return false;
      const std::uint64_t* l = lin(p);
      const std::uint64_t* nl = nonlin(p);
      std::size_t count = 0;
      for (std::size_t j = 0; j < width_; ++j) {
        if (nl[j]) return false;
        count += static_cast<std::size_t>(common::popcount64(l[j]));
        if (l[j]) out[bit] = 64 * j + common::ctz64(l[j]);
      }
      if (count != 1) return false;
    }
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = i + 1; j < 8; ++j)
        if (out[i] == out[j]) return false;
    return true;
  }

  /// Collects the in-cone output positions of gadget g at `cycle` into
  /// s_.out_pos[base .. base + 8) and appends them to s_.blocked. False
  /// when one of them is already forced (the instance was rewritten
  /// before).
  bool gadget_outputs(const GfGadget& g, std::size_t cycle, std::size_t base) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::uint32_t p = mapped_pos(g.out[bit], cycle);
      s_.out_pos[base + bit] = p;
      if (p == kNone) continue;
      if (s_.forced[p]) return false;
      s_.blocked.push_back(p);
    }
    return true;
  }

  /// Adds (L | N) of every bit of `bus` at `cycle` to s_.sup; false when a
  /// bit is outside the cone.
  bool add_support(const std::vector<SignalId>& bus, std::size_t cycle) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::uint32_t p = mapped_pos(bus[bit], cycle);
      if (p == kNone) return false;
      const std::uint64_t* l = lin(p);
      for (std::size_t j = 0; j < width_; ++j)
        s_.sup[j] |= l[j] | l[width_ + j];
    }
    return true;
  }

  // --- product-family rule ------------------------------------------------------
  // For a nonzero sharing A_0..A_{S-1} multiplied share-wise by one common
  // nonzero factor B: the products observed by the tuple are replaced when
  // the share operand cones are opaque (reach the tuple only through the
  // observed product bytes). A *proper* subset of products is jointly
  // uniform given everything else (multiplication by a fixed nonzero B is
  // a bijection of the jointly-uniform share subset), so each becomes a
  // fresh uniform byte — sound even when B itself is exposed. The *full*
  // set XORs to X'·B ∈ GF(256)*, so it additionally requires B's cone to
  // be opaque and is replaced by S-1 fresh uniform bytes plus their XOR
  // with one fresh nonzero byte; a tuple that sees all S products together
  // with B genuinely learns X'·B and the rule refuses.
  bool try_family(const Family& fam, std::size_t cycle) {
    const std::size_t S = fam.mul_sites.size();
    s_.out_pos.assign(8 * S, kNone);
    s_.blocked.clear();
    s_.in_cone.clear();
    for (std::size_t j = 0; j < S; ++j) {
      const std::size_t before = s_.blocked.size();
      if (!gadget_outputs(*a_.mul_sites_[fam.mul_sites[j]].gadget, cycle,
                          8 * j))
        return false;
      if (s_.blocked.size() > before) s_.in_cone.push_back(j);
    }
    if (s_.in_cone.empty()) return false;
    const bool full = s_.in_cone.size() == S;

    s_.sup.assign(width_, 0);
    for (const std::size_t j : s_.in_cone)
      if (!add_support(a_.mul_sites_[fam.mul_sites[j]].gadget->a, cycle))
        return false;
    if (full &&
        !add_support(a_.mul_sites_[fam.mul_sites.front()].gadget->b, cycle))
      return false;
    compute_reach(s_.blocked);
    for (std::size_t j = 0; j < width_; ++j)
      for (std::uint64_t w = s_.sup[j]; w; w &= w - 1)
        if (var_reaches(64 * j + common::ctz64(w))) return false;

    if (full) {
      std::vector<Byte> u;
      for (std::size_t k = 0; k + 1 < S; ++k) u.push_back(new_byte(true));
      const Byte w = new_byte(false);
      s_.nonzero_groups.push_back(w);
      std::vector<std::size_t> vars;
      for (std::size_t j = 0; j < S; ++j)
        for (std::size_t bit = 0; bit < 8; ++bit) {
          const std::uint32_t p = s_.out_pos[8 * j + bit];
          if (p == kNone) continue;
          vars.clear();
          if (j + 1 < S) {
            vars.push_back(u[j][bit]);
          } else {
            for (std::size_t k = 0; k + 1 < S; ++k) vars.push_back(u[k][bit]);
            vars.push_back(w[bit]);
          }
          force(p, vars);
        }
    } else {
      for (const std::size_t j : s_.in_cone) {
        const Byte u = new_byte(true);
        for (std::size_t bit = 0; bit < 8; ++bit) {
          const std::uint32_t p = s_.out_pos[8 * j + bit];
          if (p != kNone) force(p, {&u[bit], 1});
        }
      }
    }
    if (a_.debug_)
      std::fprintf(stderr, "family rule: %zu/%zu products @%zu (%s)\n",
                   s_.in_cone.size(), S, cycle, full ? "full" : "subset");
    refresh();
    ++verdict_.cuts_applied;
    return true;
  }

  // --- multiplier and inverse/square rules ------------------------------------
  // Multiplier: Z = A·B with A a byte of 8 distinct fresh variables observed
  // only through Z, and B tracing to a nonzero mask: conditioned on
  // B = b != 0, A ↦ A·b is a bijection, so Z is a fresh byte of A's support
  // class (uniform stays uniform, nonzero stays nonzero) independent of the
  // rest of the tuple — even when B itself is exposed. Inverse and square
  // are bijections of GF(2^8) preserving GF(256)*, so the same holds for
  // their output.
  bool try_bijection(const GfGadget& g, std::size_t cycle) {
    s_.out_pos.assign(8, kNone);
    s_.blocked.clear();
    if (!gadget_outputs(g, cycle, 0) || s_.blocked.empty()) return false;
    Byte avars{};
    if (!operand_byte(g.a, cycle, avars)) return false;
    bool uniform = true;
    for (const std::size_t v : avars)
      uniform = uniform && s_.vars[v].fresh && s_.vars[v].padable;
    const bool nonzero = !uniform && matches_nonzero_group(avars);
    if (!uniform && !nonzero) return false;
    compute_reach(s_.blocked);
    for (const std::size_t v : avars)
      if (var_reaches(v)) return false;
    const Byte nb = new_byte(uniform);
    if (!uniform) s_.nonzero_groups.push_back(nb);
    for (std::size_t bit = 0; bit < 8; ++bit)
      if (s_.out_pos[bit] != kNone) force(s_.out_pos[bit], {&nb[bit], 1});
    if (a_.debug_) {
      if (g.kind == GfGadgetKind::kMul)
        std::fprintf(
            stderr, "mul rule: %s @%zu (%s operand)\n",
            unl_.signal_name(a_.unrolled_->map[cycle][g.out[0]]).c_str(),
            cycle, uniform ? "uniform" : "nonzero");
      else
        std::fprintf(stderr, "%s rule: @%zu (%s operand)\n",
                     g.kind == GfGadgetKind::kInv ? "inv" : "square", cycle,
                     uniform ? "uniform" : "nonzero");
    }
    refresh();
    ++verdict_.cuts_applied;
    return true;
  }

  std::string var_name(std::size_t f) const {
    return s_.vars[f].input == netlist::kNoSignal
               ? std::string("virtual")
               : unl_.signal_name(s_.vars[f].input);
  }

  // --- OTP elimination + byte rules to a joint fixpoint -----------------------
  void fixpoint() {
    for (;;) {
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t f = 0; f < s_.vars.size(); ++f) {
          if (!s_.vars[f].fresh || !s_.vars[f].padable) continue;
          if (!observed(f)) continue;
          const std::uint32_t i = find_cut(f);
          if (i == kNone) continue;
          // Valid cut: node i = f XOR (rest without f), and f reaches the
          // tuple only through node i. Replace it by a virtual fresh var.
          if (a_.debug_)
            std::fprintf(stderr, "cut: var %zu (%s) at node %s\n", f,
                         var_name(f).c_str(),
                         unl_.signal_name(s_.cone[i]).c_str());
          const std::size_t virt = add_var(true);
          force(i, {&virt, 1});
          refresh();
          ++verdict_.cuts_applied;
          changed = true;
        }
      }
      bool fired = false;
      for (const RuleInst& inst : s_.insts) {
        switch (inst.kind) {
          case RuleInst::Kind::kFamily:
            fired = try_family(a_.families_[inst.index], inst.cycle) || fired;
            break;
          case RuleInst::Kind::kMul:
            fired = try_bijection(*a_.mul_sites_[inst.index].gadget,
                                  inst.cycle) ||
                    fired;
            break;
          case RuleInst::Kind::kUnary:
            fired = try_bijection(*a_.unary_sites_[inst.index].gadget,
                                  inst.cycle) ||
                    fired;
            break;
        }
      }
      if (!fired) break;
    }
  }

  // --- element-level Gaussian elimination --------------------------------------
  // The adversary's view is the *tuple* of element values, and any
  // invertible XOR transform across elements is a bijection of that view —
  // security is exactly preserved in both directions. So a fresh variable
  // that appears only linearly across the whole tuple can be concentrated
  // into one element by Gaussian elimination and acts as a one-time pad
  // there: after eliminating f from every other row, the pivot row is
  // f XOR (rest), with f independent of everything else the tuple sees, so
  // its value is exactly distributed as f alone. This is the cut the node
  // fixpoint above cannot make when f reaches the tuple through *several*
  // stable signals — e.g. a registered first-layer cross term and an upper
  // gate recycling its mask, the pattern that dominates order-2 pair
  // tuples. A genuine leak can never be eliminated this way (bijections
  // preserve the joint distribution), so soundness is unaffected.
  // Non-padable variables are skipped outright: a biased bit is no pad,
  // and even "cleaning" other rows with its pivot could oscillate against
  // the byte-correlated siblings.
  std::uint64_t* row_lin(std::size_t r) { return &s_.rows[2 * r * width_]; }
  std::uint64_t* row_nonlin(std::size_t r) { return row_lin(r) + width_; }
  bool row_depends(std::size_t r, std::size_t v) {
    return test_bit(row_lin(r), v) || test_bit(row_nonlin(r), v);
  }

  void eliminate_rows() {
    const std::size_t rows = s_.elements.size();
    s_.rows.resize(2 * rows * width_);
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(lin(s_.elements[r]), 2 * width_, row_lin(r));
    s_.row_done.assign(rows, 0);
    bool row_changed = true;
    while (row_changed) {
      row_changed = false;
      for (std::size_t f = 0; f < s_.vars.size(); ++f) {
        if (!s_.vars[f].fresh || !s_.vars[f].padable) continue;
        bool blocked = false;
        s_.lin_rows.clear();
        for (std::size_t r = 0; r < rows; ++r) {
          if (test_bit(row_nonlin(r), f)) {
            blocked = true;
            break;
          }
          if (test_bit(row_lin(r), f)) s_.lin_rows.push_back(r);
        }
        if (blocked || s_.lin_rows.empty()) continue;
        const std::size_t pivot = s_.lin_rows.front();
        // A done pivot is already the bare pad {f}; with no other row to
        // clean up there is nothing left to do for this variable.
        if (s_.lin_rows.size() == 1 && s_.row_done[pivot]) continue;
        for (std::size_t k = 1; k < s_.lin_rows.size(); ++k) {
          std::uint64_t* l = row_lin(s_.lin_rows[k]);
          const std::uint64_t* pl = row_lin(pivot);
          for (std::size_t j = 0; j < width_; ++j) {
            l[j] ^= pl[j];
            l[width_ + j] |= pl[width_ + j];
          }
        }
        if (!s_.row_done[pivot]) {
          if (a_.debug_)
            std::fprintf(stderr, "row-cut: var %zu (%s) at row %zu\n", f,
                         var_name(f).c_str(), pivot);
          std::fill_n(row_lin(pivot), 2 * width_, 0);
          set_bit(row_lin(pivot), f);
          s_.row_done[pivot] = 1;
          ++verdict_.cuts_applied;
        }
        row_changed = true;
      }
    }
  }

  // --- non-completeness check on the residual ---------------------------------
  TupleVerdict residual() {
    const std::size_t rows = s_.elements.size();
    // Union of the per-row dependencies (rows are the Gaussian-transformed
    // elements).
    s_.sup.assign(width_, 0);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < width_; ++j)
        s_.sup[j] |= row_lin(r)[j] | row_nonlin(r)[j];

    // Observed share variables grouped by sharing instance.
    s_.members.clear();
    for (std::size_t v = 0; v < leaf_vars_; ++v)
      if (!s_.vars[v].fresh && test_bit(s_.sup.data(), v))
        s_.members.push_back(member(v));
    std::sort(s_.members.begin(), s_.members.end());
    for (std::size_t lo = 0, hi; lo < s_.members.size(); lo = hi) {
      for (hi = lo + 1; hi < s_.members.size() &&
                        s_.members[hi].same_instance(s_.members[lo]);
           ++hi) {
      }
      if (!completes(lo, hi)) continue;
      CompletedSharing c;
      c.secret = s_.members[lo].secret;
      c.bit = s_.members[lo].bit;
      c.cycle = s_.members[lo].cycle;
      for (std::size_t e = 0; e < rows; ++e)
        for (std::size_t k = lo; k < hi; ++k)
          if (row_depends(e, s_.members[k].var)) {
            c.elements.push_back(e);
            break;
          }
      if (c.cycle == a_.last_cycle_) verdict_.raw_share_path = true;
      verdict_.completed.push_back(std::move(c));
    }
    verdict_.secure = verdict_.completed.empty();
    if (verdict_.secure) return std::move(verdict_);

    // Residual contributing elements, and the fresh bits they share — the
    // randomness-reuse witnesses the findings report.
    s_.contributing.assign(rows, 0);
    for (const CompletedSharing& c : verdict_.completed)
      for (const std::size_t e : c.elements) s_.contributing[e] = 1;
    for (std::size_t e = 0; e < rows; ++e)
      if (s_.contributing[e]) verdict_.residual_elements.push_back(e);

    for (std::size_t f = 0; f < leaf_vars_; ++f) {
      if (!s_.vars[f].fresh) continue;
      SharedFresh sf;
      for (const std::size_t e : verdict_.residual_elements)
        if (row_depends(e, f)) sf.elements.push_back(e);
      if (sf.elements.empty()) continue;
      const std::size_t ii = a_.input_index_[s_.vars[f].input];
      sf.input = a_.unrolled_->input_original[ii];
      sf.cycle = a_.unrolled_->input_cycle[ii];
      sf.nonzero = a_.input_nonzero_[ii];
      // A plain fresh bit is a *reuse* witness: it only matters when at
      // least two residual elements share it. A nonzero-constrained bit is
      // a hazard witness on its own — its bias, not reuse, is what defeats
      // the XOR pad — so it is recorded even when one element touches it.
      if (!sf.nonzero && sf.elements.size() < 2) continue;
      verdict_.shared_fresh.push_back(std::move(sf));
    }
    return std::move(verdict_);
  }

  const TupleAnalyzer& a_;
  Scratch& s_;
  const Netlist& unl_;
  std::uint32_t n_ = 0;          ///< cone size; also the virtual root
  std::size_t leaf_vars_ = 0;
  std::size_t width_ = 0;        ///< words per L or N set
  std::uint32_t dirty_from_ = 0; ///< lowest position forced since refresh()
  bool dom_valid_ = false;
  TupleVerdict verdict_;
};

TupleVerdict TupleAnalyzer::analyze(
    const std::vector<TupleElement>& elements) const {
  thread_local Scratch scratch;
  return Pass(*this, scratch).run(elements);
}

}  // namespace sca::lint
