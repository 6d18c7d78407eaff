#include "src/gadgets/masked_sbox.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/conversions.hpp"
#include "src/gadgets/gf_circuits.hpp"

namespace sca::gadgets {

using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

MaskedSbox build_masked_sbox_core(Netlist& nl, const std::vector<Bus>& in_shares,
                                  const Bus& rand_b2m, const Bus& rand_m2b,
                                  const std::vector<SignalId>& kron_fresh,
                                  const MaskedSboxOptions& opts,
                                  const std::string& scope) {
  common::require(in_shares.size() == 2,
                  "build_masked_sbox_core: first-order design needs 2 shares");
  common::require(rand_b2m.size() == 8 && rand_m2b.size() == 8,
                  "build_masked_sbox_core: randomness buses must be 8 bits");

  nl.push_scope(scope);
  MaskedSbox sbox;
  sbox.in_shares = in_shares;
  sbox.rand_b2m = rand_b2m;
  sbox.rand_m2b = rand_m2b;
  sbox.kron_fresh = kron_fresh;

  std::vector<Bus> x_prime(2);
  std::vector<SignalId> z_delayed;  // delta shares aligned with the M2B output

  if (opts.include_kronecker) {
    KroneckerDelta kron =
        build_kronecker(nl, sbox.in_shares, opts.kron_plan, "kron", kron_fresh);
    sbox.kron_fresh = kron.fresh;

    // Input shares wait for the delta in a 3-deep pipeline.
    const Bus d0 = delay_bus(nl, sbox.in_shares[0], kron.latency);
    const Bus d1 = delay_bus(nl, sbox.in_shares[1], kron.latency);
    name_bus(nl, d0, "d0_");
    name_bus(nl, d1, "d1_");

    // X' = X ^ delta(X): the delta bit lands on bit 0 of each share.
    x_prime[0] = d0;
    x_prime[0][0] = nl.xor_(d0[0], kron.z[0]);
    nl.name_signal(x_prime[0][0], "xp0_0");
    x_prime[1] = d1;
    x_prime[1][0] = nl.xor_(d1[0], kron.z[1]);
    nl.name_signal(x_prime[1][0], "xp1_0");

    // The delta must be re-applied after inversion: delay it past B2M (1)
    // and M2B (1).
    z_delayed = {nl.reg(nl.reg(kron.z[0])), nl.reg(nl.reg(kron.z[1]))};
    nl.name_signal(z_delayed[0], "zd0");
    nl.name_signal(z_delayed[1], "zd1");

    sbox.kronecker = std::move(kron);
    sbox.latency = 5;
  } else {
    x_prime[0] = sbox.in_shares[0];
    x_prime[1] = sbox.in_shares[1];
    sbox.latency = 2;
  }

  // Boolean -> multiplicative. The harness always feeds R from GF(256)*;
  // X' is guaranteed non-zero only when the Kronecker delta ran.
  nl.add_nonzero_bus(sbox.rand_b2m);
  const B2MResult b2m = build_b2m(nl, x_prime[0], x_prime[1], sbox.rand_b2m,
                                  "b2m",
                                  /*operand_nonzero=*/opts.include_kronecker);

  // Local inversion of P1 (a single multiplicative share): X'^-1 = P0 x
  // inv(P1), so the product-form output shares are Q0 = P0, Q1 = inv(P1).
  nl.push_scope("inv");
  const Bus q1 = build_gf256_inv(nl, b2m.p1);
  name_bus(nl, q1, "q1_");
  nl.pop_scope();

  // Multiplicative -> Boolean.
  const M2BResult m2b = build_m2b(nl, b2m.p0, q1, sbox.rand_m2b);

  // Undo the zero-mapping, then the affine transformation. Only share 0
  // receives the affine constant.
  Bus y0 = m2b.b0;
  Bus y1 = m2b.b1;
  if (opts.include_kronecker) {
    y0[0] = nl.xor_(y0[0], z_delayed[0]);
    y1[0] = nl.xor_(y1[0], z_delayed[1]);
  }
  if (opts.include_affine) {
    nl.push_scope("affine");
    y0 = build_sbox_affine(nl, y0, /*with_constant=*/true);
    y1 = build_sbox_affine(nl, y1, /*with_constant=*/false);
    nl.pop_scope();
  }
  name_bus(nl, y0, "s0_");
  name_bus(nl, y1, "s1_");
  sbox.out_shares = {y0, y1};

  nl.pop_scope();
  return sbox;
}

MaskedSbox build_masked_sbox(Netlist& nl, const MaskedSboxOptions& opts,
                             const std::string& scope, std::uint32_t secret) {
  nl.push_scope(scope);
  std::vector<Bus> in_shares = {
      make_input_bus(nl, 8, InputRole::kShare, "b0_", secret, 0),
      make_input_bus(nl, 8, InputRole::kShare, "b1_", secret, 1)};
  const Bus r = make_input_bus(nl, 8, InputRole::kRandom, "R");
  const Bus rp = make_input_bus(nl, 8, InputRole::kRandom, "Rp");
  std::vector<SignalId> kron_fresh;
  if (opts.include_kronecker) {
    for (std::size_t k = 0; k < opts.kron_plan.fresh_count(); ++k)
      kron_fresh.push_back(
          nl.add_input(InputRole::kRandom, common::make_name("f", k)));
  }
  nl.pop_scope();

  MaskedSbox sbox =
      build_masked_sbox_core(nl, in_shares, r, rp, kron_fresh, opts, scope);
  for (std::size_t i = 0; i < 8; ++i) {
    nl.add_output(common::make_name("s0_", i), sbox.out_shares[0][i]);
    nl.add_output(common::make_name("s1_", i), sbox.out_shares[1][i]);
  }
  return sbox;
}

}  // namespace sca::gadgets
