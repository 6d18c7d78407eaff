// Per-lane reference enumerator for the exact verifier's equivalence
// tests: one probe's enumeration problem (verif::detail::Analysis, from
// ProbeDistributionEngine::analysis) evaluated over the whole unrolled
// netlist, 64 lanes at a time in analysis variable order, with every
// lane's secret and observation value assembled bit by bit. No cone tape,
// variable reordering or word-level counting: whatever the production
// enumerator does beyond that must reproduce these counts and first hits
// exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/netlist/ir.hpp"
#include "src/verif/exact_detail.hpp"

namespace sca::testutil {

struct ReferenceEnumeration {
  /// Flat, secret-major: counts[(secret << observation bits) | obs].
  std::vector<std::uint32_t> counts;
  /// Same layout: the lowest assignment index (bit j = vars[j]) reaching
  /// each (secret, obs), kNoHit where the count is zero.
  std::vector<std::uint64_t> first_hit;
  static constexpr std::uint64_t kNoHit =
      std::numeric_limits<std::uint64_t>::max();
};

inline ReferenceEnumeration reference_enumerate(
    const netlist::Netlist& unrolled, const verif::detail::Analysis& a) {
  using netlist::GateKind;
  constexpr std::uint64_t kPattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::size_t nv = a.vars.size();
  const std::size_t n_secret = a.secret_var_indices.size();
  const std::size_t n_obs = a.observation.size();
  ReferenceEnumeration out;
  out.counts.assign(std::size_t{1} << (n_secret + n_obs), 0);
  out.first_hit.assign(out.counts.size(), ReferenceEnumeration::kNoHit);

  std::vector<std::uint64_t> values(unrolled.size(), 0);
  std::vector<std::uint64_t> var_words(nv, 0);
  const std::size_t blocks = nv > 6 ? (std::size_t{1} << (nv - 6)) : 1;
  const std::size_t lanes_used = nv >= 6 ? 64 : (std::size_t{1} << nv);
  for (std::size_t block = 0; block < blocks; ++block) {
    for (std::size_t j = 0; j < nv; ++j)
      var_words[j] = j < 6 ? kPattern[j]
                           : (((block >> (j - 6)) & 1u) ? ~std::uint64_t{0}
                                                        : 0);
    for (const verif::detail::InputExpr& expr : a.input_exprs) {
      std::uint64_t w = 0;
      for (std::size_t v : expr.var_indices) w ^= var_words[v];
      values[expr.input] = w;
    }
    for (netlist::SignalId id = 0; id < unrolled.size(); ++id) {
      const netlist::Gate& g = unrolled.gate(id);
      const auto in = [&](std::size_t k) { return values[g.fanin[k]]; };
      switch (g.kind) {
        case GateKind::kInput:
        case GateKind::kReg:
          break;
        case GateKind::kConst0:
          values[id] = 0;
          break;
        case GateKind::kConst1:
          values[id] = ~std::uint64_t{0};
          break;
        case GateKind::kBuf:
          values[id] = in(0);
          break;
        case GateKind::kNot:
          values[id] = ~in(0);
          break;
        case GateKind::kAnd:
          values[id] = in(0) & in(1);
          break;
        case GateKind::kNand:
          values[id] = ~(in(0) & in(1));
          break;
        case GateKind::kOr:
          values[id] = in(0) | in(1);
          break;
        case GateKind::kNor:
          values[id] = ~(in(0) | in(1));
          break;
        case GateKind::kXor:
          values[id] = in(0) ^ in(1);
          break;
        case GateKind::kXnor:
          values[id] = ~(in(0) ^ in(1));
          break;
        case GateKind::kMux:
          values[id] = (~in(0) & in(1)) | (in(0) & in(2));
          break;
      }
    }
    std::uint64_t skip = 0;
    for (const auto& group : a.nonzero_groups) {
      std::uint64_t all_zero = ~std::uint64_t{0};
      for (const std::size_t v : group) all_zero &= ~var_words[v];
      skip |= all_zero;
    }
    for (std::size_t lane = 0; lane < lanes_used; ++lane) {
      if ((skip >> lane) & 1u) continue;
      std::uint64_t secret_value = 0;
      for (std::size_t k = 0; k < n_secret; ++k)
        secret_value |=
            ((var_words[a.secret_var_indices[k]] >> lane) & 1u) << k;
      std::uint64_t obs_value = 0;
      for (std::size_t k = 0; k < n_obs; ++k)
        obs_value |= ((values[a.observation[k]] >> lane) & 1u) << k;
      const std::size_t slot = (secret_value << n_obs) | obs_value;
      out.counts[slot] += 1;
      out.first_hit[slot] =
          std::min<std::uint64_t>(out.first_hit[slot], block * 64 + lane);
    }
  }
  return out;
}

/// The input assignment of enumeration index `index`, by unrolled input
/// name, in input_exprs order — the shape of
/// ProbeDistributionEngine::preimage.
inline std::vector<std::pair<std::string, bool>> reference_assignment(
    const netlist::Netlist& unrolled, const verif::detail::Analysis& a,
    std::uint64_t index) {
  std::vector<std::pair<std::string, bool>> out;
  for (const verif::detail::InputExpr& expr : a.input_exprs) {
    std::uint64_t bit = 0;
    for (std::size_t v : expr.var_indices) bit ^= (index >> v) & 1u;
    out.emplace_back(unrolled.signal_name(expr.input), bit != 0);
  }
  return out;
}

}  // namespace sca::testutil
