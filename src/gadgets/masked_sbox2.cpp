#include "src/gadgets/masked_sbox2.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/conversions2.hpp"
#include "src/gadgets/gf_circuits.hpp"

namespace sca::gadgets {

using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

MaskedSbox2 build_masked_sbox2(Netlist& nl, const MaskedSbox2Options& options,
                               const std::string& scope, std::uint32_t secret) {
  common::require(options.kron_plan.slot_count() == kronecker_slot_count(3),
                  "build_masked_sbox2: plan must have 21 slots (3 shares)");
  nl.push_scope(scope);
  MaskedSbox2 sbox;

  for (std::uint32_t i = 0; i < 3; ++i)
    sbox.in_shares.push_back(make_input_bus(
        nl, 8, InputRole::kShare, common::make_name("b", i, "_"), secret, i));
  sbox.rand_r1 = make_input_bus(nl, 8, InputRole::kRandom, "R1");
  sbox.rand_r2 = make_input_bus(nl, 8, InputRole::kRandom, "R2");
  sbox.rand_s1 = make_input_bus(nl, 8, InputRole::kRandom, "S1");
  sbox.rand_s2 = make_input_bus(nl, 8, InputRole::kRandom, "S2");
  // The harness draws R1 and R2 from GF(256)*.
  nl.add_nonzero_bus(sbox.rand_r1);
  nl.add_nonzero_bus(sbox.rand_r2);

  // Kronecker delta over the three shares (3 cycles).
  KroneckerDelta kron =
      build_kronecker(nl, sbox.in_shares, options.kron_plan, "kron");
  sbox.kron_fresh = kron.fresh;

  // Delay the input and apply the zero-mapping on bit 0 of every share.
  std::vector<Bus> x_prime(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const Bus d = delay_bus(nl, sbox.in_shares[i], kron.latency);
    x_prime[i] = d;
    x_prime[i][0] = nl.xor_(d[0], kron.z[i]);
    nl.name_signal(x_prime[i][0], common::make_name("xp", i, "_0"));
  }

  // B2M: two cycles; P = X' R1 R2 with X' != 0 guaranteed by the Kronecker.
  const B2M2Result b2m = build_b2m2(nl, x_prime, sbox.rand_r1, sbox.rand_r2);

  // Local inversion of the data-carrying share:
  // X'^-1 = R1 * R2 * inv(P)  (product form, shares (R1, R2, inv(P))).
  nl.push_scope("inv");
  const Bus q2 = build_gf256_inv(nl, b2m.p);
  name_bus(nl, q2, "q2_");
  nl.pop_scope();

  // M2B: three cycles back to Boolean sharing.
  const M2B2Result m2b =
      build_m2b2(nl, b2m.r1, b2m.r2, q2, sbox.rand_s1, sbox.rand_s2);

  // Undo the zero-mapping: the delta shares wait for B2M (2) + M2B (3).
  std::vector<SignalId> z_delayed(3);
  for (std::size_t i = 0; i < 3; ++i) {
    SignalId z = kron.z[i];
    for (int d = 0; d < 5; ++d) z = nl.reg(z);
    z_delayed[i] = z;
    nl.name_signal(z, common::make_name("zd", i));
  }

  for (std::size_t i = 0; i < 3; ++i) {
    Bus y = m2b.b_shares[i];
    y[0] = nl.xor_(y[0], z_delayed[i]);
    if (options.include_affine)
      y = build_sbox_affine(nl, y, /*with_constant=*/i == 0);
    name_bus(nl, y, common::make_name("s", i, "_"));
    sbox.out_shares.push_back(y);
    for (std::size_t b = 0; b < 8; ++b)
      nl.add_output(common::make_name("s", i, "_", b), y[b]);
  }

  sbox.latency = kron.latency + 2 + 3;
  nl.pop_scope();
  return sbox;
}

}  // namespace sca::gadgets
