#include "src/gadgets/conversions2.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/gf_circuits.hpp"

namespace sca::gadgets {

using netlist::Netlist;

B2M2Result build_b2m2(Netlist& nl, const std::vector<Bus>& b_shares,
                      const Bus& r1, const Bus& r2, const std::string& scope) {
  common::require(b_shares.size() == 3, "build_b2m2: need 3 Boolean shares");
  nl.push_scope(scope);
  B2M2Result result;

  // The documented contract requires the recombined operand X to be non-zero
  // (Kronecker delta upstream), so declare the share group for the
  // constrained-randomness linter unconditionally.
  nl.add_nonzero_sharing({b_shares[0], b_shares[1], b_shares[2]});

  // Cycle 1: blind every share with R1 before anything is combined.
  std::vector<Bus> c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c[i] = reg_bus(nl, build_gf256_mul(nl, b_shares[i], r1));
    name_bus(nl, c[i], common::make_name("c", i, "_"));
  }

  // Cycle 2: compress 3 -> 2 (safe: C0 ^ C1 is blinded by R1 and still
  // masked by C2), then blind with R2.
  const Bus d0 = xor_bus(nl, c[0], c[1]);
  // D0 ^ C2 = X * R1 != 0, D0 = (B0 ^ B1) * R1 is uniform given the secrets
  // (B-share freshness), C2 = B2 * R1 likewise: a valid nonzero sharing for
  // the cycle-2 products.
  nl.add_nonzero_sharing({d0, c[2]});
  const Bus r2_d = reg_bus(nl, r2);
  name_bus(nl, r2_d, "r2d_");
  const Bus e0 = reg_bus(nl, build_gf256_mul(nl, d0, r2_d));
  name_bus(nl, e0, "e0_");
  const Bus e1 = reg_bus(nl, build_gf256_mul(nl, c[2], r2_d));
  name_bus(nl, e1, "e1_");

  // Final compression 2 -> 1: P = X * R1 * R2, uniform (non-zero) for any
  // non-zero X — this is why the Kronecker delta runs upstream.
  result.p = xor_bus(nl, e0, e1);
  name_bus(nl, result.p, "p_");
  result.r1 = delay_bus(nl, r1, 2);
  name_bus(nl, result.r1, "r1d_");
  result.r2 = reg_bus(nl, r2_d);
  name_bus(nl, result.r2, "r2dd_");

  nl.pop_scope();
  return result;
}

M2B2Result build_m2b2(Netlist& nl, const Bus& q0, const Bus& q1, const Bus& q2,
                      const Bus& s1, const Bus& s2, const std::string& scope) {
  nl.push_scope(scope);
  M2B2Result result;

  // Cycle 1: Boolean-mask the data-carrying share Q2.
  const Bus t0 = reg_bus(nl, s1);
  name_bus(nl, t0, "t0_");
  const Bus t1 = reg_bus(nl, xor_bus(nl, q2, s1));
  name_bus(nl, t1, "t1_");

  // Cycle 2: multiply both Boolean shares by Q1 (share-local).
  const Bus q1_d = reg_bus(nl, q1);
  const Bus u0 = reg_bus(nl, build_gf256_mul(nl, t0, q1_d));
  name_bus(nl, u0, "u0_");
  const Bus u1 = reg_bus(nl, build_gf256_mul(nl, t1, q1_d));
  name_bus(nl, u1, "u1_");

  // Cycle 3: reshare 2 -> 3 with the fresh mask S2.
  const Bus s2_d = delay_bus(nl, s2, 2);
  const Bus w0 = reg_bus(nl, xor_bus(nl, u0, s2_d));
  const Bus w1 = reg_bus(nl, s2_d);
  const Bus w2 = reg_bus(nl, u1);
  name_bus(nl, w0, "w0_");
  name_bus(nl, w1, "w1_");
  name_bus(nl, w2, "w2_");

  // Output: multiply every Boolean share by Q0 (combinational, like the
  // first-order M2B's output products).
  const Bus q0_d = delay_bus(nl, q0, 3);
  name_bus(nl, q0_d, "q0d_");
  result.b_shares = {build_gf256_mul(nl, w0, q0_d),
                     build_gf256_mul(nl, w1, q0_d),
                     build_gf256_mul(nl, w2, q0_d)};
  for (std::size_t i = 0; i < 3; ++i)
    name_bus(nl, result.b_shares[i], common::make_name("b", i, "_"));

  nl.pop_scope();
  return result;
}

}  // namespace sca::gadgets
