#include "src/gadgets/dom_gf.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/dom.hpp"
#include "src/gadgets/gf_circuits.hpp"

namespace sca::gadgets {

using netlist::Netlist;

namespace {

Bus field_mul(Netlist& nl, GfKind kind, const Bus& a, const Bus& b) {
  switch (kind) {
    case GfKind::kGf4Tower:
      return build_gf4_mul(nl, a, b);
    case GfKind::kGf16Tower:
      return build_gf16_mul(nl, a, b);
    case GfKind::kGf256Aes:
      return build_gf256_mul(nl, a, b);
  }
  throw common::Error("field_mul: unknown field kind");
}

}  // namespace

DomGfMul build_dom_gf_mul(Netlist& nl, GfKind kind, const std::vector<Bus>& x,
                          const std::vector<Bus>& y,
                          const std::vector<Bus>& masks,
                          const std::string& name) {
  const std::size_t s = x.size();
  const std::size_t width = gf_width(kind);
  common::require(s >= 2, "build_dom_gf_mul: need at least 2 shares");
  common::require(y.size() == s, "build_dom_gf_mul: share count mismatch");
  common::require(masks.size() == dom_mask_count(s),
                  "build_dom_gf_mul: wrong mask count");
  for (const Bus& bus : x)
    common::require(bus.size() == width, "build_dom_gf_mul: x width mismatch");
  for (const Bus& bus : y)
    common::require(bus.size() == width, "build_dom_gf_mul: y width mismatch");
  for (const Bus& bus : masks)
    common::require(bus.size() == width,
                    "build_dom_gf_mul: mask width mismatch");

  nl.push_scope(name);
  DomGfMul gadget;
  for (std::size_t i = 0; i < s; ++i) {
    // Inner-domain product, registered (pipelined like the paper's gadgets).
    Bus acc = reg_bus(nl, field_mul(nl, kind, x[i], y[i]));
    name_bus(nl, acc, common::make_name("inner", i, "_reg"));
    for (std::size_t j = 0; j < s; ++j) {
      if (j == i) continue;
      const std::size_t mi = dom_mask_index(std::min(i, j), std::max(i, j), s);
      Bus cross = field_mul(nl, kind, x[i], y[j]);
      name_bus(nl, cross, common::make_name("crossprod", i, j));
      cross = reg_bus(nl, xor_bus(nl, cross, masks[mi]));
      name_bus(nl, cross,
               common::make_name("cross", i, j, "_reg"));
      acc = xor_bus(nl, acc, cross);
    }
    name_bus(nl, acc, common::make_name("out", i));
    gadget.out.push_back(std::move(acc));
  }
  nl.pop_scope();
  return gadget;
}

std::vector<Bus> build_ring_refresh(Netlist& nl, const std::vector<Bus>& shares,
                                    const std::vector<Bus>& masks,
                                    const std::string& name) {
  const std::size_t s = shares.size();
  common::require(s >= 2, "build_ring_refresh: need at least 2 shares");
  common::require(masks.size() == refresh_mask_count(s),
                  "build_ring_refresh: wrong mask count");
  const std::size_t width = shares[0].size();
  for (const Bus& bus : shares)
    common::require(bus.size() == width, "build_ring_refresh: width mismatch");
  for (const Bus& bus : masks)
    common::require(bus.size() == width,
                    "build_ring_refresh: mask width mismatch");

  nl.push_scope(name);
  std::vector<Bus> out(s);
  for (std::size_t i = 0; i < s; ++i) {
    Bus masked = shares[i];
    if (s == 2) {
      masked = xor_bus(nl, masked, masks[0]);
    } else {
      masked = xor_bus(nl, masked, masks[i]);
      masked = xor_bus(nl, masked, masks[(i + 1) % s]);
    }
    out[i] = reg_bus(nl, masked);
    name_bus(nl, out[i], common::make_name("fresh", i, "_"));
  }
  nl.pop_scope();
  return out;
}

}  // namespace sca::gadgets
