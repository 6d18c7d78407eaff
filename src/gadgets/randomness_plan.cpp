#include "src/gadgets/randomness_plan.hpp"

#include <cctype>
#include <sstream>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/bus.hpp"

namespace sca::gadgets {

using common::require;
using netlist::Netlist;
using netlist::SignalId;

RandomnessPlan::RandomnessPlan(std::string name, std::size_t fresh_count,
                               std::vector<MaskSlotExpr> slots)
    : name_(std::move(name)), fresh_count_(fresh_count), slots_(std::move(slots)) {
  require(fresh_count_ <= 64, "RandomnessPlan: at most 64 fresh bits");
  const std::uint64_t valid =
      fresh_count_ == 64 ? ~std::uint64_t{0}
                         : ((std::uint64_t{1} << fresh_count_) - 1);
  for (const MaskSlotExpr& slot : slots_) {
    require(slot.fresh_mask != 0, "RandomnessPlan: slot uses no fresh bit");
    require((slot.fresh_mask & ~valid) == 0,
            "RandomnessPlan: slot references out-of-range fresh bit");
  }
}

std::string RandomnessPlan::describe() const {
  std::ostringstream os;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (s) os << ' ';
    os << 'r' << (s + 1) << '=';
    if (slots_[s].registered) os << '[';
    bool first = true;
    for (unsigned k = 0; k < 64; ++k) {
      if ((slots_[s].fresh_mask >> k) & 1u) {
        if (!first) os << '^';
        os << 'f' << k;
        first = false;
      }
    }
    if (slots_[s].registered) os << ']';
  }
  return os.str();
}

std::vector<SignalId> RandomnessPlan::materialize(
    Netlist& nl, const std::vector<SignalId>& fresh) const {
  require(fresh.size() == fresh_count_,
          "RandomnessPlan::materialize: fresh signal count mismatch");
  std::vector<SignalId> out;
  out.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const MaskSlotExpr& slot = slots_[s];
    std::vector<SignalId> terms;
    for (unsigned k = 0; k < 64; ++k)
      if ((slot.fresh_mask >> k) & 1u) terms.push_back(fresh[k]);
    SignalId sig = terms.size() == 1 ? terms[0] : xor_tree(nl, std::move(terms));
    if (slot.registered) sig = nl.reg(sig);
    nl.name_signal(sig, common::make_name("r", s + 1));
    out.push_back(sig);
  }
  return out;
}

RandomnessPlan RandomnessPlan::parse(const std::string& name,
                                     const std::string& description) {
  std::istringstream is(description);
  std::vector<MaskSlotExpr> slots;
  std::string token;
  std::size_t expected_slot = 1;
  unsigned max_bit = 0;
  while (is >> token) {
    const auto eq = token.find('=');
    require(eq != std::string::npos && token.size() > eq + 1 && token[0] == 'r',
            "RandomnessPlan::parse: expected rK=<expr>, got '" + token + "'");
    std::size_t slot_number = 0;
    try {
      slot_number = std::stoul(token.substr(1, eq - 1));
    } catch (const std::exception&) {
      throw common::Error("RandomnessPlan::parse: bad slot index in '" + token +
                          "'");
    }
    require(slot_number >= expected_slot,
            "RandomnessPlan::parse: duplicate slot r" +
                std::to_string(slot_number));
    require(slot_number == expected_slot,
            "RandomnessPlan::parse: slots must be listed in order (r" +
                std::to_string(expected_slot) + " expected)");
    ++expected_slot;

    std::string expr = token.substr(eq + 1);
    MaskSlotExpr slot;
    if (!expr.empty() && expr.front() == '[') {
      require(expr.size() >= 2 && expr.back() == ']',
              "RandomnessPlan::parse: unterminated '[' in '" + token + "'");
      slot.registered = true;
      expr = expr.substr(1, expr.size() - 2);
    }
    std::size_t pos = 0;
    while (pos < expr.size()) {
      require(expr[pos] == 'f',
              "RandomnessPlan::parse: expected fN in '" + token + "'");
      std::size_t digits = 0;
      unsigned bit = 0;
      while (pos + 1 + digits < expr.size() &&
             std::isdigit(static_cast<unsigned char>(expr[pos + 1 + digits]))) {
        bit = bit * 10 + static_cast<unsigned>(expr[pos + 1 + digits] - '0');
        // Cap before the accumulator can wrap on absurd indices (f4294967296
        // must not alias f0).
        require(bit < 64,
                "RandomnessPlan::parse: fresh bit index out of range in '" +
                    token + "' (at most f63)");
        ++digits;
      }
      require(digits > 0, "RandomnessPlan::parse: missing bit index in '" +
                              token + "'");
      require(!((slot.fresh_mask >> bit) & 1u),
              "RandomnessPlan::parse: duplicate fresh bit f" +
                  std::to_string(bit) + " in '" + token +
                  "' (fN ^ fN is constant zero, not a mask)");
      slot.fresh_mask |= std::uint64_t{1} << bit;
      max_bit = std::max(max_bit, bit);
      pos += 1 + digits;
      if (pos < expr.size()) {
        require(expr[pos] == '^',
                "RandomnessPlan::parse: expected '^' in '" + token + "'");
        ++pos;
        require(pos < expr.size(),
                "RandomnessPlan::parse: dangling '^' in '" + token + "'");
      }
    }
    require(slot.fresh_mask != 0,
            "RandomnessPlan::parse: slot '" + token + "' uses no fresh bit");
    slots.push_back(slot);
  }
  require(!slots.empty(), "RandomnessPlan::parse: no slots given");
  return RandomnessPlan(name, max_bit + 1, std::move(slots));
}

namespace {

MaskSlotExpr f(unsigned k) { return MaskSlotExpr{std::uint64_t{1} << k, false}; }

MaskSlotExpr fxor_reg(unsigned a, unsigned b) {
  return MaskSlotExpr{(std::uint64_t{1} << a) | (std::uint64_t{1} << b), true};
}

}  // namespace

RandomnessPlan RandomnessPlan::kron1_full_fresh() {
  return RandomnessPlan("kron1/full-fresh-7", 7,
                        {f(0), f(1), f(2), f(3), f(4), f(5), f(6)});
}

RandomnessPlan RandomnessPlan::kron1_demeyer_eq6() {
  // r1 = r3 = f0, r2 = r4 = f1, r5 = f2, r6 = [r5 ^ r2] = [f2 ^ f1], r7 = r1.
  return RandomnessPlan("kron1/demeyer-eq6-3bits", 3,
                        {f(0), f(1), f(0), f(1), f(2), fxor_reg(2, 1), f(0)});
}

RandomnessPlan RandomnessPlan::kron1_single_reuse_r1r3() {
  return RandomnessPlan("kron1/single-reuse-r1r3", 6,
                        {f(0), f(1), f(0), f(2), f(3), f(4), f(5)});
}

RandomnessPlan RandomnessPlan::kron1_pair_reuse() {
  return RandomnessPlan("kron1/pair-reuse-r1r3-r2r4", 5,
                        {f(0), f(1), f(0), f(1), f(2), f(3), f(4)});
}

RandomnessPlan RandomnessPlan::kron1_proposed_eq9() {
  // r1..r4 fresh; r5 = r4, r6 = r2, r7 = r3 (Eq. (9)).
  return RandomnessPlan("kron1/proposed-eq9-4bits", 4,
                        {f(0), f(1), f(2), f(3), f(3), f(1), f(2)});
}

RandomnessPlan RandomnessPlan::kron1_r5_equals_r6() {
  return RandomnessPlan("kron1/r5-equals-r6", 6,
                        {f(0), f(1), f(2), f(3), f(4), f(4), f(5)});
}

RandomnessPlan RandomnessPlan::kron1_transition_secure(
    int reused_first_layer_index) {
  require(reused_first_layer_index >= 1 && reused_first_layer_index <= 4,
          "kron1_transition_secure: r7 must reuse r1..r4");
  return RandomnessPlan(
      "kron1/transition-secure-r7-is-r" +
          std::to_string(reused_first_layer_index),
      6,
      {f(0), f(1), f(2), f(3), f(4), f(5),
       f(static_cast<unsigned>(reused_first_layer_index - 1))});
}

RandomnessPlan RandomnessPlan::kron2_full_fresh() {
  std::vector<MaskSlotExpr> slots;
  for (unsigned k = 0; k < 21; ++k) slots.push_back(f(k));
  return RandomnessPlan("kron2/full-fresh-21", 21, std::move(slots));
}

RandomnessPlan RandomnessPlan::kron2_naive13() {
  // Gates G1..G4 (first layer): fresh f0..f11, three per gate.
  std::vector<MaskSlotExpr> slots;
  for (unsigned k = 0; k < 12; ++k) slots.push_back(f(k));
  // G5 (combines G1, G2 outputs): reuse G4's masks — the sibling subtree,
  // mirroring Eq. (9)'s r5 = r4.
  slots.push_back(f(9));
  slots.push_back(f(10));
  slots.push_back(f(11));
  // G6 (combines G3, G4 outputs): reuse G2's masks, mirroring r6 = r2.
  slots.push_back(f(3));
  slots.push_back(f(4));
  slots.push_back(f(5));
  // G7 (top): one genuinely fresh bit plus reuse of G3's masks.
  slots.push_back(f(12));
  slots.push_back(f(6));
  slots.push_back(f(7));
  return RandomnessPlan("kron2/naive-13", 13, std::move(slots));
}

RandomnessPlan RandomnessPlan::kron2_reduced() {
  // First and second layers fully fresh (f0..f17); each top-gate slot is a
  // *registered XOR* of two first-layer masks from different gates:
  //   m01 = [f0 ^ f9]   (G1.m01 ^ G4.m01)
  //   m02 = [f3 ^ f10]  (G2.m01 ^ G4.m02)
  //   m12 = [f6 ^ f1]   (G3.m01 ^ G1.m02)
  // The register breaks the glitch cone (the slot is a stable signal, not
  // a raw mask wire), and canceling the pad would take both source masks'
  // sibling uses — out of reach for two probes. This is the second-order
  // generalization of Eq. (9)'s combine-and-register repair; the raw-reuse
  // variant it replaces lives on as kron2_reduced_leaky(). 21 -> 18 bits.
  std::vector<MaskSlotExpr> slots;
  for (unsigned k = 0; k < 18; ++k) slots.push_back(f(k));
  slots.push_back(fxor_reg(0, 9));
  slots.push_back(fxor_reg(3, 10));
  slots.push_back(fxor_reg(6, 1));
  return RandomnessPlan("kron2/reduced-18", 18, std::move(slots));
}

RandomnessPlan RandomnessPlan::kron2_reduced_leaky() {
  // The broken 18-bit reduction: the top gate reuses one raw first-layer
  // mask per slot, one from each of G1, G2, G3 — the direct second-order
  // transcription of the paper's transition-secure family (r1..r6 fresh,
  // r7 reused from the first layer). Secure at order 1, but a probe pair
  // (G5-layer wire, z0) cancels the reused pad against the first-layer
  // register carrying its sibling use and then conditions on the raw
  // inner-domain products: the order-2 campaign measures -log10 p > 60 at
  // 200k simulations on six pairs, and the order-2 lint flags exactly
  // those pair sets. Kept as the agreement suite's known-leaky design.
  std::vector<MaskSlotExpr> slots;
  for (unsigned k = 0; k < 18; ++k) slots.push_back(f(k));
  slots.push_back(f(0));
  slots.push_back(f(3));
  slots.push_back(f(6));
  return RandomnessPlan("kron2/reduced-18-leaky", 18, std::move(slots));
}

}  // namespace sca::gadgets
