#include "src/gadgets/dom_sbox.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/dom_gf.hpp"
#include "src/gadgets/gf_circuits.hpp"

namespace sca::gadgets {

using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

namespace {

Bus slice(const Bus& bus, std::size_t begin, std::size_t count) {
  return Bus(bus.begin() + static_cast<std::ptrdiff_t>(begin),
             bus.begin() + static_cast<std::ptrdiff_t>(begin + count));
}

Bus concat(const Bus& lo, const Bus& hi) {
  Bus out = lo;
  out.insert(out.end(), hi.begin(), hi.end());
  return out;
}

// Groups a flat list of mask bits into per-pair buses of `width` bits for
// one DOM multiplier, consuming them from `cursor`.
std::vector<Bus> take_masks(const std::vector<SignalId>& masks,
                            std::size_t& cursor, std::size_t width,
                            std::size_t pair_count) {
  std::vector<Bus> out;
  for (std::size_t p = 0; p < pair_count; ++p) {
    Bus bus;
    for (std::size_t b = 0; b < width; ++b) bus.push_back(masks.at(cursor++));
    out.push_back(std::move(bus));
  }
  return out;
}

}  // namespace

DomSbox build_dom_sbox_core(Netlist& nl, const std::vector<Bus>& in_shares,
                            const std::vector<SignalId>& masks,
                            const DomSboxOptions& options,
                            const std::string& scope) {
  const std::size_t s = options.share_count;
  common::require(s >= 2, "build_dom_sbox_core: need at least 2 shares");
  common::require(in_shares.size() == s,
                  "build_dom_sbox_core: share count mismatch");
  common::require(masks.size() == dom_sbox_mask_bits(s),
                  "build_dom_sbox_core: wrong mask bit count");
  const std::size_t pairs = dom_mask_count(s);

  nl.push_scope(scope);
  DomSbox sbox;
  sbox.in_shares = in_shares;
  sbox.masks = masks;

  // Stage 0: basis change, split into tower halves, REGISTERED per share.
  // The register layer is load-bearing for security, not just timing: a
  // glitch-extended probe on a stage-1 multiplier gate reaches back to the
  // nearest stable signals, and without this layer that is the *entire*
  // 8-bit cone of both input shares (the basis change mixes all bits) — a
  // complete unmasked secret. With it, the probe sees one 4-bit half per
  // share domain, which is uniform. This is why DOM Sboxes register their
  // operands after the input linear map.
  std::vector<Bus> hi(s), lo(s);
  for (std::size_t i = 0; i < s; ++i) {
    const Bus tower = build_aes_to_tower(nl, in_shares[i]);
    lo[i] = reg_bus(nl, slice(tower, 0, 4));
    hi[i] = reg_bus(nl, slice(tower, 4, 4));
    name_bus(nl, lo[i], common::make_name("lo", i, "_reg"));
    name_bus(nl, hi[i], common::make_name("hi", i, "_reg"));
  }

  std::size_t cursor = 0;

  // Stage 1: nu = lambda*hi^2 + lo^2 + lo*hi.
  const DomGfMul mult_lo_hi = build_dom_gf_mul(
      nl, GfKind::kGf16Tower, lo, hi, take_masks(masks, cursor, 4, pairs),
      "mul_nu");
  // nu is re-registered as a collapsed share before feeding the next
  // multiplier: a GF(4) cross product n0^i & n1^j would otherwise extend
  // through the XOR trees into stage-1 registers of *both* domains, where
  // the two per-share linear terms XOR to the unmasked lambda*hi^2 + lo^2.
  // (Found by the exact verifier.)
  std::vector<Bus> nu(s);
  for (std::size_t i = 0; i < s; ++i) {
    const Bus lin = xor_bus(nl, build_gf16_mul_lambda(nl, build_gf16_sq(nl, hi[i])),
                            build_gf16_sq(nl, lo[i]));
    nu[i] = reg_bus(nl, xor_bus(nl, reg_bus(nl, lin), mult_lo_hi.out[i]));
    name_bus(nl, nu[i], common::make_name("nu", i, "_reg"));
  }

  // Stage 2: nu4 = w*n1^2 + n0^2 + n0*n1 over GF(2^2); inv4 = nu4^2.
  std::vector<Bus> n0(s), n1(s);
  for (std::size_t i = 0; i < s; ++i) {
    n0[i] = slice(nu[i], 0, 2);
    n1[i] = slice(nu[i], 2, 2);
  }
  const DomGfMul mult_n0_n1 = build_dom_gf_mul(
      nl, GfKind::kGf4Tower, n0, n1, take_masks(masks, cursor, 2, pairs),
      "mul_nu4");
  std::vector<Bus> inv4(s);
  for (std::size_t i = 0; i < s; ++i) {
    const Bus lin = xor_bus(nl, build_gf4_mul_w(nl, build_gf4_sq(nl, n1[i])),
                            build_gf4_sq(nl, n0[i]));
    const Bus nu4 = xor_bus(nl, reg_bus(nl, lin), mult_n0_n1.out[i]);
    inv4[i] = build_gf4_sq(nl, nu4);  // inversion in GF(4) is squaring
    name_bus(nl, inv4[i], common::make_name("inv4_", i, "_"));
  }

  // Stage 3: ninv halves. n0/n1 arrive from stage 2 (cycle 2) and must wait
  // one cycle for inv4 (cycle 3) — and they must be REFRESHED, not merely
  // delayed: the nu sharing already feeds the stage-2 multiplier, so a probe
  // on a stage-3 gate would otherwise combine share-0 information from
  // inv4's register cone with share-1 information from the delayed nu and
  // reconstruct linear functions of the unmasked norm. (Found by the exact
  // verifier — TV distance 1.0 without the refresh.)
  const std::size_t refreshes = refresh_mask_count(s);
  std::vector<Bus> n0_d, n1_d;
  {
    std::vector<Bus> m0 = take_masks(masks, cursor, 2, refreshes);
    std::vector<Bus> m1 = take_masks(masks, cursor, 2, refreshes);
    n0_d = build_ring_refresh(nl, n0, m0, "refresh_n0");
    n1_d = build_ring_refresh(nl, n1, m1, "refresh_n1");
  }
  std::vector<Bus> n01_d(s);
  for (std::size_t i = 0; i < s; ++i)
    n01_d[i] = xor_bus(nl, n0_d[i], n1_d[i]);
  const DomGfMul mult_ninv_hi = build_dom_gf_mul(
      nl, GfKind::kGf4Tower, n1_d, inv4, take_masks(masks, cursor, 2, pairs),
      "mul_ninv_hi");
  const DomGfMul mult_ninv_lo = build_dom_gf_mul(
      nl, GfKind::kGf4Tower, n01_d, inv4, take_masks(masks, cursor, 2, pairs),
      "mul_ninv_lo");
  std::vector<Bus> ninv(s);
  for (std::size_t i = 0; i < s; ++i) {
    ninv[i] = concat(mult_ninv_lo.out[i], mult_ninv_hi.out[i]);
    name_bus(nl, ninv[i], common::make_name("ninv", i, "_"));
  }

  // Stage 4: output halves. hi/lo (registered at cycle 1) wait four more
  // cycles for ninv (cycle 5).
  std::vector<Bus> hi_d(s), lohi_d(s);
  for (std::size_t i = 0; i < s; ++i) {
    hi_d[i] = delay_bus(nl, hi[i], 4);
    lohi_d[i] = delay_bus(nl, xor_bus(nl, lo[i], hi[i]), 4);
  }
  const DomGfMul mult_out_hi = build_dom_gf_mul(
      nl, GfKind::kGf16Tower, hi_d, ninv, take_masks(masks, cursor, 4, pairs),
      "mul_out_hi");
  const DomGfMul mult_out_lo = build_dom_gf_mul(
      nl, GfKind::kGf16Tower, lohi_d, ninv, take_masks(masks, cursor, 4, pairs),
      "mul_out_lo");
  SCA_ASSERT(cursor == masks.size(), "dom sbox: mask accounting mismatch");

  for (std::size_t i = 0; i < s; ++i) {
    Bus out = build_tower_to_aes(
        nl, concat(mult_out_lo.out[i], mult_out_hi.out[i]));
    if (options.include_affine)
      out = build_sbox_affine(nl, out, /*with_constant=*/i == 0);
    name_bus(nl, out, common::make_name("s", i, "_"));
    sbox.out_shares.push_back(std::move(out));
  }

  nl.pop_scope();
  return sbox;
}

DomSbox build_dom_sbox(Netlist& nl, const DomSboxOptions& options,
                       const std::string& scope, std::uint32_t secret) {
  nl.push_scope(scope);
  std::vector<Bus> in_shares;
  for (std::size_t i = 0; i < options.share_count; ++i)
    in_shares.push_back(make_input_bus(nl, 8, InputRole::kShare,
                                       common::make_name("b", i, "_"), secret,
                                       static_cast<std::uint32_t>(i)));
  std::vector<SignalId> masks;
  for (std::size_t k = 0; k < dom_sbox_mask_bits(options.share_count); ++k)
    masks.push_back(
        nl.add_input(InputRole::kRandom, common::make_name("m", k)));
  nl.pop_scope();

  DomSbox sbox = build_dom_sbox_core(nl, in_shares, masks, options, scope);
  for (std::size_t i = 0; i < sbox.out_shares.size(); ++i)
    for (std::size_t b = 0; b < 8; ++b)
      nl.add_output(common::make_name("s", i, "_", b),
                    sbox.out_shares[i][b]);
  return sbox;
}

}  // namespace sca::gadgets
