#include "src/gadgets/kronecker.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::gadgets {

using common::require;
using netlist::Netlist;
using netlist::SignalId;

KroneckerDelta build_kronecker(Netlist& nl, const std::vector<Bus>& x_shares,
                               const RandomnessPlan& plan,
                               const std::string& scope,
                               const std::vector<SignalId>& fresh_external) {
  const std::size_t s = x_shares.size();
  require(s >= 2, "build_kronecker: need at least 2 shares");
  for (const Bus& share : x_shares)
    require(share.size() == 8, "build_kronecker: shares must be 8 bits");
  const std::size_t per_gate = dom_mask_count(s);
  require(plan.slot_count() == 7 * per_gate,
          "build_kronecker: plan has wrong slot count for this share count");

  nl.push_scope(scope);

  // Fresh mask bits: externally supplied for sub-circuit use, or created as
  // primary inputs (redrawn every clock cycle by the stimulus generator).
  KroneckerDelta kron;
  if (fresh_external.empty()) {
    for (std::size_t k = 0; k < plan.fresh_count(); ++k)
      kron.fresh.push_back(
          nl.add_input(netlist::InputRole::kRandom, common::make_name("f", k)));
  } else {
    require(fresh_external.size() == plan.fresh_count(),
            "build_kronecker: external fresh bit count mismatch");
    kron.fresh = fresh_external;
  }
  const std::vector<SignalId> slots = plan.materialize(nl, kron.fresh);

  // Complement the input: on Boolean shares, inverting share 0 inverts the
  // secret while shares 1..s-1 pass through.
  // inverted[i][b] = bit b of share i of NOT(X).
  std::vector<std::vector<SignalId>> inverted(s);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      const SignalId bit =
          (i == 0) ? nl.not_(x_shares[i][b]) : x_shares[i][b];
      if (i == 0)
        nl.name_signal(bit, common::make_name("xn", b, "_s0"));
      inverted[i].push_back(bit);
    }
  }

  // Share vector of inverted bit b.
  auto bit_shares = [&](std::size_t b) {
    std::vector<SignalId> v(s);
    for (std::size_t i = 0; i < s; ++i) v[i] = inverted[i][b];
    return v;
  };
  auto gate_masks = [&](std::size_t gate_index_1based) {
    const std::size_t base = (gate_index_1based - 1) * per_gate;
    return std::vector<SignalId>(slots.begin() + static_cast<std::ptrdiff_t>(base),
                                 slots.begin() +
                                     static_cast<std::ptrdiff_t>(base + per_gate));
  };

  // Layer 1: G1..G4 pair up adjacent complemented bits.
  std::vector<DomAnd> layer1;
  for (std::size_t g = 0; g < 4; ++g)
    layer1.push_back(build_dom_and(nl, bit_shares(2 * g), bit_shares(2 * g + 1),
                                   gate_masks(g + 1),
                                   common::make_name("G", g + 1)));

  // Layer 2: G5 = G1 & G2, G6 = G3 & G4.
  DomAnd g5 = build_dom_and(nl, layer1[0].out, layer1[1].out, gate_masks(5), "G5");
  DomAnd g6 = build_dom_and(nl, layer1[2].out, layer1[3].out, gate_masks(6), "G6");

  // Layer 3: G7 = G5 & G6.
  DomAnd g7 = build_dom_and(nl, g5.out, g6.out, gate_masks(7), "G7");

  kron.z = g7.out;
  for (std::size_t i = 0; i < s; ++i)
    nl.name_signal(kron.z[i], common::make_name("z", i));
  kron.gates = std::move(layer1);
  kron.gates.push_back(std::move(g5));
  kron.gates.push_back(std::move(g6));
  kron.gates.push_back(std::move(g7));

  nl.pop_scope();
  return kron;
}

}  // namespace sca::gadgets
