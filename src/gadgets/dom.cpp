#include "src/gadgets/dom.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"

namespace sca::gadgets {

using netlist::Netlist;
using netlist::SignalId;

std::size_t dom_mask_index(std::size_t i, std::size_t j, std::size_t share_count) {
  SCA_ASSERT(i < j && j < share_count, "dom_mask_index: need i < j < s");
  // Pairs ordered (0,1), (0,2), ..., (0,s-1), (1,2), ...
  return i * share_count - i * (i + 1) / 2 + (j - i - 1);
}

DomAnd build_dom_and(Netlist& nl, const std::vector<SignalId>& x,
                     const std::vector<SignalId>& y,
                     const std::vector<SignalId>& masks,
                     const std::string& name, bool register_inner) {
  const std::size_t s = x.size();
  common::require(s >= 2, "build_dom_and: need at least 2 shares");
  common::require(y.size() == s, "build_dom_and: share count mismatch");
  common::require(masks.size() == dom_mask_count(s),
                  "build_dom_and: wrong mask count");

  nl.push_scope(name);
  DomAnd gadget;
  gadget.inner_regs.resize(s);
  gadget.cross_regs.resize(s);

  for (std::size_t i = 0; i < s; ++i) {
    // Inner-domain term x^i y^i.
    SignalId inner = nl.and_(x[i], y[i]);
    nl.name_signal(inner, common::make_name("inner", i));
    if (register_inner) {
      inner = nl.reg(inner);
      nl.name_signal(inner, common::make_name("inner", i, "_reg"));
    }
    gadget.inner_regs[i] = inner;

    // Cross-domain terms [x^i y^j ^ r_ij], always registered (this register
    // is what makes DOM glitch-secure).
    SignalId acc = inner;
    for (std::size_t j = 0; j < s; ++j) {
      if (j == i) continue;
      const std::size_t mi = dom_mask_index(std::min(i, j), std::max(i, j), s);
      const SignalId cross_prod = nl.and_(x[i], y[j]);
      nl.name_signal(cross_prod,
                     common::make_name("crossprod", i, j));
      const SignalId cross_raw = nl.xor_(cross_prod, masks[mi]);
      nl.name_signal(cross_raw, common::make_name("cross", i, j));
      const SignalId cross = nl.reg(cross_raw);
      nl.name_signal(cross, common::make_name("cross", i, j, "_reg"));
      gadget.cross_regs[i].push_back(cross);
      acc = nl.xor_(acc, cross);
      nl.name_signal(acc, common::make_name("sum", i, j));
    }
    gadget.out.push_back(acc);
    nl.name_signal(acc, common::make_name("out", i));
  }

  nl.pop_scope();
  return gadget;
}

}  // namespace sca::gadgets
