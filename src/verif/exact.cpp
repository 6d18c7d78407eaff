#include "src/verif/exact.hpp"

#include <array>
#include <optional>
#include <set>
#include <tuple>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include <bit>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/netlist/cone.hpp"
#include "src/verif/unroll.hpp"

namespace sca::verif {

using common::require;
using netlist::GateKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

// Named (not anonymous) so ProbeDistributionEngine::Impl can hold the
// engine without giving a class with external linkage an internal-linkage
// subobject; only this translation unit uses it.
namespace exact_detail {

// Lane patterns for the first six enumeration variables: variable j toggles
// with period 2^(j+1) across the 64 lanes of one block. In a wide SIMD
// block the next log2(limbs) variables stripe across limbs (limb i of
// variable 6+k is all-ones iff bit k of i is set), so lane L of a W-lane
// block still enumerates assignment L — the 64-lane layout, just wider.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// Enumeration word of variable `j` in wide block `block`: bit L of the word
// (lane numbering: bit L%64 of limb L/64) is bit j of the assignment index
// block * kLanes + L.
template <unsigned kLimbs>
common::SimdWord<kLimbs> enumeration_word(std::size_t j, std::size_t block) {
  using Word = common::SimdWord<kLimbs>;
  constexpr unsigned kLimbBits = std::countr_zero(kLimbs);
  if (j < 6) return Word::broadcast(kLanePattern[j]);
  if (j < 6 + kLimbBits) {
    Word w = Word::zero();
    for (unsigned i = 0; i < kLimbs; ++i)
      if ((i >> (j - 6)) & 1u) w.set_limb(i, ~std::uint64_t{0});
    return w;
  }
  return ((block >> (j - 6 - kLimbBits)) & 1u) ? Word::ones() : Word::zero();
}

// One enumeration variable of the exact analysis.
struct Var {
  enum class Kind { kSecretBit, kFree } kind = Kind::kFree;
  // For kSecretBit: which (secret group, bit); inputs depending on it are
  // wired through share reconstruction below.
  std::uint32_t secret = 0;
  std::uint32_t bit = 0;
};

// How one unrolled input gets its value during enumeration: XOR of a set of
// variables (e.g. the last share of a fully-observed sharing is
// secret-bit ^ all other shares).
struct InputExpr {
  SignalId input = netlist::kNoSignal;
  std::vector<std::size_t> var_indices;
};

struct Analysis {
  std::vector<Var> vars;
  std::vector<InputExpr> input_exprs;
  std::vector<std::size_t> secret_var_indices;  // subset of vars
  std::vector<SignalId> observation;            // unrolled signals, ordered
  /// Variable groups constrained to "not all zero" — one per annotated
  /// nonzero-bus instance the observation touches (GF(256)* enumeration).
  std::vector<std::array<std::size_t, 8>> nonzero_groups;
  bool feasible = true;
};

// The engine holds everything derived from the netlist once, shared by all
// probe analyses.
class ExactEngine {
 public:
  ExactEngine(const Netlist& nl, const ExactOptions& options)
      : nl_(nl), options_(options), supports_(nl) {
    const std::size_t depth = sequential_depth(nl);
    const std::size_t extra = options.transitions ? 1 : 0;
    const std::size_t cycles =
        options.cycles ? options.cycles : depth + 1 + extra;
    require(cycles > depth + extra,
            "exact verifier: unroll depth must exceed sequential depth");
    unrolled_ = unroll(nl, cycles, options.held_inputs);
    unrolled_supports_.emplace(unrolled_.nl);
    // Index unrolled inputs by signal for classification.
    for (std::size_t i = 0; i < unrolled_.nl.inputs().size(); ++i)
      input_index_[unrolled_.nl.inputs()[i].signal] = i;
  }

  const Netlist& netlist() const { return nl_; }
  const Netlist& unrolled_netlist() const { return unrolled_.nl; }
  const ExactOptions& options() const { return options_; }

  /// Observation set (unrolled, last cycle — and with transitions, the
  /// previous cycle too) of a glitch-extended probe on original signal
  /// `probe`. Sorted ascending.
  std::vector<SignalId> observation_of(SignalId probe) const {
    const std::size_t last = unrolled_.cycles - 1;
    std::vector<SignalId> obs;
    for (std::size_t idx : supports_.support(probe).set_bits()) {
      const SignalId stable = supports_.stable_points()[idx];
      for (std::size_t back = 0; back <= (options_.transitions ? 1u : 0u);
           ++back) {
        const SignalId mapped = unrolled_.map[last - back][stable];
        SCA_ASSERT(mapped != netlist::kNoSignal,
                   "exact verifier: observation reaches the cold start");
        obs.push_back(mapped);
      }
    }
    std::sort(obs.begin(), obs.end());
    obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
    return obs;
  }

  /// Variable structure for an observation set.
  Analysis analyze(const std::vector<SignalId>& observation) const {
    Analysis a;
    a.observation = observation;

    // Union of unrolled-input supports.
    common::DynamicBitset support(unrolled_supports_->stable_points().size());
    for (SignalId sig : observation) support |= unrolled_supports_->support(sig);

    // Bucket share inputs by (secret, bit, cycle); randoms become free vars.
    struct Bucket {
      std::vector<std::pair<std::uint32_t, SignalId>> shares;  // (share, sig)
    };
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::size_t>, Bucket>
        buckets;
    std::vector<SignalId> free_inputs;
    for (std::size_t idx : support.set_bits()) {
      const SignalId sig = unrolled_supports_->stable_points()[idx];
      const auto it = input_index_.find(sig);
      SCA_ASSERT(it != input_index_.end(),
                 "exact verifier: unrolled stable point is not an input");
      const netlist::InputInfo& info = unrolled_.nl.inputs()[it->second];
      switch (info.role) {
        case InputRole::kRandom:
          free_inputs.push_back(sig);
          break;
        case InputRole::kControl:
          // Public control inputs are fixed to 0 in this analysis.
          break;
        case InputRole::kShare:
          buckets[{info.share.secret, info.share.bit,
                   unrolled_.input_cycle[it->second]}]
              .shares.emplace_back(info.share.share, sig);
          break;
      }
    }

    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> secret_vars;
    for (auto& [key, bucket] : buckets) {
      const auto [secret, bit, cycle] = key;
      const std::uint32_t total_shares = nl_.share_count(secret);
      std::sort(bucket.shares.begin(), bucket.shares.end());
      if (bucket.shares.size() < total_shares) {
        // A proper subset of the shares is jointly uniform and independent
        // of the secret: all free.
        for (const auto& [share, sig] : bucket.shares) free_inputs.push_back(sig);
        continue;
      }
      // All shares observed: shares 0..S-2 free, last = secret ^ rest.
      const auto secret_key = std::make_pair(secret, bit);
      if (!secret_vars.contains(secret_key)) {
        secret_vars[secret_key] = a.vars.size();
        a.secret_var_indices.push_back(a.vars.size());
        a.vars.push_back(Var{Var::Kind::kSecretBit, secret, bit});
      }
      const std::size_t secret_var = secret_vars[secret_key];
      std::vector<std::size_t> share_vars;
      for (std::size_t i = 0; i + 1 < bucket.shares.size(); ++i) {
        const std::size_t v = a.vars.size();
        a.vars.push_back(Var{Var::Kind::kFree, 0, 0});
        share_vars.push_back(v);
        a.input_exprs.push_back(InputExpr{bucket.shares[i].second, {v}});
      }
      std::vector<std::size_t> last_expr = share_vars;
      last_expr.push_back(secret_var);
      a.input_exprs.push_back(
          InputExpr{bucket.shares.back().second, std::move(last_expr)});
    }
    for (SignalId sig : free_inputs) {
      const std::size_t v = a.vars.size();
      a.vars.push_back(Var{Var::Kind::kFree, 0, 0});
      a.input_exprs.push_back(InputExpr{sig, {v}});
    }

    // Constrained randomness: every annotated nonzero-bus instance with at
    // least one bit in the observation's support is enumerated over
    // GF(256)*. Bits the cone never reads join as phantom free variables —
    // the byte-level constraint couples all eight bits, so excluding the
    // all-zero byte is only expressible over the full group. Instances are
    // deduplicated by their unrolled bit set (held inputs repeat per cycle).
    if (options_.honor_nonzero_buses) {
      std::map<SignalId, std::size_t> var_of_free;
      for (const InputExpr& e : a.input_exprs)
        if (e.var_indices.size() == 1 &&
            a.vars[e.var_indices.front()].kind == Var::Kind::kFree)
          var_of_free.emplace(e.input, e.var_indices.front());
      std::set<std::array<SignalId, 8>> seen_instances;
      for (const auto& bus : nl_.nonzero_buses())
        for (std::size_t c = 0; c < unrolled_.cycles; ++c) {
          std::array<SignalId, 8> uid{};
          bool mapped = true;
          for (std::size_t i = 0; i < 8 && mapped; ++i) {
            uid[i] = unrolled_.map[c][bus[i]];
            mapped = uid[i] != netlist::kNoSignal;
          }
          if (!mapped) continue;
          bool any = false;
          for (const SignalId s : uid) any = any || var_of_free.count(s) > 0;
          if (!any) continue;
          if (!seen_instances.insert(uid).second) continue;
          std::array<std::size_t, 8> group{};
          for (std::size_t i = 0; i < 8; ++i) {
            const auto it = var_of_free.find(uid[i]);
            if (it != var_of_free.end()) {
              group[i] = it->second;
              continue;
            }
            const std::size_t v = a.vars.size();
            a.vars.push_back(Var{Var::Kind::kFree, 0, 0});
            a.input_exprs.push_back(InputExpr{uid[i], {v}});
            var_of_free.emplace(uid[i], v);
            group[i] = v;
          }
          a.nonzero_groups.push_back(group);
        }
    }

    a.feasible = a.vars.size() <= options_.max_vars &&
                 observation.size() <= options_.max_observation_bits &&
                 a.secret_var_indices.size() + observation.size() <= 30;
    return a;
  }

  /// Evaluation cone of an analysis over the unrolled netlist, ascending
  /// (SSA ids: ascending = topological).
  std::vector<SignalId> build_cone(const Analysis& a) const {
    std::vector<SignalId> cone;
    std::vector<bool> seen(unrolled_.nl.size(), false);
    std::vector<SignalId> stack(a.observation.begin(), a.observation.end());
    while (!stack.empty()) {
      const SignalId id = stack.back();
      stack.pop_back();
      if (seen[id]) continue;
      seen[id] = true;
      cone.push_back(id);
      const netlist::Gate& g = unrolled_.nl.gate(id);
      const std::size_t arity = netlist::gate_arity(g.kind);
      for (std::size_t i = 0; i < arity; ++i) stack.push_back(g.fanin[i]);
    }
    std::sort(cone.begin(), cone.end());
    return cone;
  }

  /// Evaluates the cone W-lane bit-parallel (W = 64 * kLimbs); inputs must
  /// be driven in `values` beforehand.
  template <unsigned kLimbs>
  void eval_cone(const std::vector<SignalId>& cone,
                 std::vector<common::SimdWord<kLimbs>>& values) const {
    using Word = common::SimdWord<kLimbs>;
    for (SignalId id : cone) {
      const netlist::Gate& g = unrolled_.nl.gate(id);
      switch (g.kind) {
        case GateKind::kInput:
          break;
        case GateKind::kConst0:
          values[id] = Word::zero();
          break;
        case GateKind::kConst1:
          values[id] = Word::ones();
          break;
        case GateKind::kBuf:
          values[id] = values[g.fanin[0]];
          break;
        case GateKind::kNot:
          values[id] = ~values[g.fanin[0]];
          break;
        case GateKind::kAnd:
          values[id] = values[g.fanin[0]] & values[g.fanin[1]];
          break;
        case GateKind::kNand:
          values[id] = ~(values[g.fanin[0]] & values[g.fanin[1]]);
          break;
        case GateKind::kOr:
          values[id] = values[g.fanin[0]] | values[g.fanin[1]];
          break;
        case GateKind::kNor:
          values[id] = ~(values[g.fanin[0]] | values[g.fanin[1]]);
          break;
        case GateKind::kXor:
          values[id] = values[g.fanin[0]] ^ values[g.fanin[1]];
          break;
        case GateKind::kXnor:
          values[id] = ~(values[g.fanin[0]] ^ values[g.fanin[1]]);
          break;
        case GateKind::kMux:
          values[id] = (~values[g.fanin[0]] & values[g.fanin[1]]) |
                       (values[g.fanin[0]] & values[g.fanin[2]]);
          break;
        case GateKind::kReg:
          SCA_ASSERT(false, "exact verifier: register in unrolled netlist");
      }
    }
  }

  /// Exact joint histogram counts[secret_value][observation_value] for an
  /// analysis at one batch width. The counts are integers accumulated once
  /// per enumerated assignment, so every width produces the identical
  /// histogram; wider words just evaluate the cone fewer times.
  template <unsigned kLimbs>
  std::vector<std::vector<std::uint32_t>> enumerate_impl(
      const Analysis& a) const {
    using Word = common::SimdWord<kLimbs>;
    constexpr std::size_t kLaneBits = 6 + std::countr_zero(kLimbs);
    const std::size_t nv = a.vars.size();
    const std::size_t n_secret = a.secret_var_indices.size();
    const std::size_t n_obs = a.observation.size();
    std::vector<std::vector<std::uint32_t>> counts(
        std::size_t{1} << n_secret,
        std::vector<std::uint32_t>(std::size_t{1} << n_obs, 0));

    const std::vector<SignalId> cone = build_cone(a);

    std::vector<Word> values(unrolled_.nl.size(), Word::zero());
    const std::size_t blocks =
        nv > kLaneBits ? (std::size_t{1} << (nv - kLaneBits)) : 1;
    const std::size_t lanes_used =
        nv >= kLaneBits ? Word::kLanes : (std::size_t{1} << nv);

    std::vector<Word> var_words(nv, Word::zero());
    for (std::size_t block = 0; block < blocks; ++block) {
      for (std::size_t j = 0; j < nv; ++j)
        var_words[j] = enumeration_word<kLimbs>(j, block);
      // Drive inputs and evaluate the cone.
      for (const InputExpr& expr : a.input_exprs) {
        Word w = Word::zero();
        for (std::size_t v : expr.var_indices) w ^= var_words[v];
        values[expr.input] = w;
      }
      eval_cone<kLimbs>(cone, values);
      // Lanes where some nonzero-constrained byte is all-zero are outside
      // the constrained distribution and are not accumulated. The skip set
      // only involves free variables, so every secret keeps the same total.
      Word skip = Word::zero();
      for (const auto& group : a.nonzero_groups) {
        Word all_zero = Word::ones();
        for (const std::size_t v : group) all_zero &= ~var_words[v];
        skip |= all_zero;
      }
      // Accumulate.
      for (std::size_t lane = 0; lane < lanes_used; ++lane) {
        const unsigned limb = static_cast<unsigned>(lane / 64);
        const unsigned bit = static_cast<unsigned>(lane % 64);
        if ((skip.limb(limb) >> bit) & 1u) continue;
        std::uint64_t secret_value = 0;
        for (std::size_t k = 0; k < n_secret; ++k)
          secret_value |=
              ((var_words[a.secret_var_indices[k]].limb(limb) >> bit) & 1u)
              << k;
        std::uint64_t obs_value = 0;
        for (std::size_t k = 0; k < n_obs; ++k)
          obs_value |= ((values[a.observation[k]].limb(limb) >> bit) & 1u)
                       << k;
        counts[secret_value][obs_value] += 1;
      }
    }
    return counts;
  }

  /// Exact joint histogram counts[secret_value][observation_value] for an
  /// analysis. secret_value packs the secret-bit variables in
  /// secret_var_indices order. Batch width per ExactOptions::lanes.
  std::vector<std::vector<std::uint32_t>> enumerate(const Analysis& a) const {
    switch (common::resolve_lanes(options_.lanes) / 64) {
      case 4:
        return enumerate_impl<4>(a);
      case 8:
        return enumerate_impl<8>(a);
      default:
        return enumerate_impl<1>(a);
    }
  }

  /// First enumeration assignment hitting (secret_value, obs_value); every
  /// input of the analysis gets its concrete value, by unrolled input name.
  /// Empty when the joint count is zero.
  std::vector<std::pair<std::string, bool>> preimage(
      const Analysis& a, std::uint64_t want_secret,
      std::uint64_t want_obs) const {
    const std::size_t nv = a.vars.size();
    const std::size_t n_secret = a.secret_var_indices.size();
    const std::size_t n_obs = a.observation.size();
    const std::vector<SignalId> cone = build_cone(a);

    // 64-lane blocks are plenty here: preimage extraction stops at the
    // first hit and only ever runs on one (secret, obs) certificate.
    using Word = common::SimdWord<1>;
    std::vector<Word> values(unrolled_.nl.size(), Word::zero());
    const std::size_t blocks = nv > 6 ? (std::size_t{1} << (nv - 6)) : 1;
    const std::size_t lanes_used = nv >= 6 ? 64 : (std::size_t{1} << nv);
    std::vector<Word> var_words(nv, Word::zero());
    for (std::size_t block = 0; block < blocks; ++block) {
      for (std::size_t j = 0; j < nv; ++j)
        var_words[j] = enumeration_word<1>(j, block);
      for (const InputExpr& expr : a.input_exprs) {
        Word w = Word::zero();
        for (std::size_t v : expr.var_indices) w ^= var_words[v];
        values[expr.input] = w;
      }
      eval_cone<1>(cone, values);
      Word skip = Word::zero();
      for (const auto& group : a.nonzero_groups) {
        Word all_zero = Word::ones();
        for (const std::size_t v : group) all_zero &= ~var_words[v];
        skip |= all_zero;
      }
      for (std::size_t lane = 0; lane < lanes_used; ++lane) {
        if ((skip.limb(0) >> lane) & 1u) continue;
        std::uint64_t secret_value = 0;
        for (std::size_t k = 0; k < n_secret; ++k)
          secret_value |=
              ((var_words[a.secret_var_indices[k]].limb(0) >> lane) & 1u) << k;
        if (secret_value != want_secret) continue;
        std::uint64_t obs_value = 0;
        for (std::size_t k = 0; k < n_obs; ++k)
          obs_value |= ((values[a.observation[k]].limb(0) >> lane) & 1u) << k;
        if (obs_value != want_obs) continue;
        std::vector<std::pair<std::string, bool>> out;
        out.reserve(a.input_exprs.size());
        for (const InputExpr& expr : a.input_exprs)
          out.emplace_back(unrolled_.nl.signal_name(expr.input),
                           ((values[expr.input].limb(0) >> lane) & 1u) != 0);
        return out;
      }
    }
    return {};
  }

 private:
  const Netlist& nl_;
  ExactOptions options_;
  netlist::StableSupport supports_;
  Unrolled unrolled_;
  std::optional<netlist::StableSupport> unrolled_supports_;
  std::unordered_map<SignalId, std::size_t> input_index_;
};

// Total-variation distance between two equal-total histograms.
double tv_distance(const std::vector<std::uint32_t>& p,
                   const std::vector<std::uint32_t>& q) {
  std::uint64_t total_p = 0, total_q = 0, abs_diff_doubled = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    total_p += p[i];
    total_q += q[i];
    abs_diff_doubled +=
        p[i] > q[i] ? (p[i] - q[i]) : (q[i] - p[i]);
  }
  SCA_ASSERT(total_p == total_q, "tv_distance: histogram totals differ");
  if (total_p == 0) return 0.0;
  return 0.5 * static_cast<double>(abs_diff_doubled) /
         static_cast<double>(total_p);
}

}  // namespace exact_detail

using exact_detail::Analysis;
using exact_detail::ExactEngine;
using exact_detail::tv_distance;

std::vector<const ExactProbeResult*> ExactReport::leaking() const {
  std::vector<const ExactProbeResult*> out;
  for (const auto& p : probes)
    if (p.leaks) out.push_back(&p);
  std::sort(out.begin(), out.end(),
            [](const ExactProbeResult* a, const ExactProbeResult* b) {
              return a->max_tv_distance > b->max_tv_distance;
            });
  return out;
}

ExactReport verify_first_order_glitch(const Netlist& nl,
                                      const ExactOptions& options) {
  nl.validate();
  ExactEngine engine(nl, options);

  // Dedupe probes by observation set; remember the best display name.
  std::map<std::vector<SignalId>, SignalId> unique_observations;
  for (SignalId probe = 0; probe < nl.size(); ++probe) {
    const GateKind k = nl.kind(probe);
    if (k == GateKind::kConst0 || k == GateKind::kConst1) continue;
    auto obs = engine.observation_of(probe);
    if (obs.empty()) continue;
    auto [it, inserted] = unique_observations.try_emplace(std::move(obs), probe);
    // Prefer an explicitly named representative for readable reports.
    if (!inserted && !nl.explicit_name(it->second) && nl.explicit_name(probe))
      it->second = probe;
  }

  // The std::map fixes a deterministic probe order (sorted by observation);
  // the heavy per-probe analyses then run in parallel into order-indexed
  // slots, so the report is identical for any thread count.
  std::vector<const std::pair<const std::vector<SignalId>, SignalId>*> work;
  work.reserve(unique_observations.size());
  for (const auto& entry : unique_observations) work.push_back(&entry);

  ExactReport report;
  report.probes_total = unique_observations.size();
  report.probes.resize(work.size());
  common::parallel_for(
      work.size(), options.threads, [&](std::size_t i) {
        const std::vector<SignalId>& observation = work[i]->first;
        const SignalId representative = work[i]->second;
        ExactProbeResult result;
        result.probe = representative;
        result.name = nl.signal_name(representative);
        result.observation_bits = observation.size();

        const Analysis analysis = engine.analyze(observation);
        result.secret_bits = analysis.secret_var_indices.size();
        result.free_bits = analysis.vars.size() - result.secret_bits;
        if (!analysis.feasible) {
          result.skipped = true;
        } else if (!analysis.secret_var_indices.empty()) {
          // (An observation that cannot reach any complete sharing is
          // trivially secure and needs no enumeration.)
          const auto counts = engine.enumerate(analysis);
          for (std::size_t v = 1; v < counts.size(); ++v) {
            const double tv = tv_distance(counts[0], counts[v]);
            if (tv > result.max_tv_distance) {
              result.max_tv_distance = tv;
              result.witness_a = 0;
              result.witness_b = v;
            }
          }
          result.leaks = result.max_tv_distance > 0.0;
        }
        report.probes[i] = std::move(result);
      });

  for (const ExactProbeResult& p : report.probes) {
    if (p.skipped) report.any_skipped = true;
    if (p.leaks) {
      report.any_leak = true;
      ++report.probes_leaking;
    }
  }
  return report;
}

std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>
exact_probe_distribution(const Netlist& nl, SignalId probe,
                         const ExactOptions& options) {
  const ProbeDistributionEngine engine(nl, options);
  const ProbeDistribution dist = engine.distribution(probe);
  require(dist.feasible,
          "exact_probe_distribution: probe exceeds enumeration limits");
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> out;
  for (std::size_t v = 0; v < dist.counts.size(); ++v)
    for (std::size_t o = 0; o < dist.counts[v].size(); ++o)
      if (dist.counts[v][o]) out[v][o] = dist.counts[v][o];
  return out;
}

struct ProbeDistributionEngine::Impl {
  ExactEngine engine;
  Impl(const Netlist& nl, const ExactOptions& options) : engine(nl, options) {}
};

ProbeDistributionEngine::ProbeDistributionEngine(const Netlist& nl,
                                                 const ExactOptions& options) {
  nl.validate();
  impl_ = std::make_unique<Impl>(nl, options);
}

ProbeDistributionEngine::~ProbeDistributionEngine() = default;

ProbeDistribution ProbeDistributionEngine::distribution(SignalId probe) const {
  const ExactEngine& engine = impl_->engine;
  ProbeDistribution out;
  const auto observation = engine.observation_of(probe);
  const Analysis analysis = engine.analyze(observation);
  for (const std::size_t v : analysis.secret_var_indices) {
    const auto& var = analysis.vars[v];
    out.secret_bits.push_back(common::make_name(
        engine.netlist().secret_group_name(var.secret), ".b", var.bit));
  }
  for (const SignalId sig : analysis.observation)
    out.observation.push_back(engine.unrolled_netlist().signal_name(sig));
  out.free_bits = analysis.vars.size() - analysis.secret_var_indices.size();
  if (!analysis.feasible) {
    out.feasible = false;
    out.infeasible_reason =
        "enumeration over " + std::to_string(analysis.vars.size()) +
        " variables / " + std::to_string(observation.size()) +
        " observation bits exceeds the configured limits";
    return out;
  }
  if (!analysis.secret_var_indices.empty())
    out.counts = engine.enumerate(analysis);
  return out;
}

std::vector<std::pair<std::string, bool>> ProbeDistributionEngine::preimage(
    SignalId probe, std::uint64_t secret, std::uint64_t obs) const {
  const ExactEngine& engine = impl_->engine;
  const auto observation = engine.observation_of(probe);
  const Analysis analysis = engine.analyze(observation);
  if (!analysis.feasible) return {};
  return engine.preimage(analysis, secret, obs);
}

std::string to_string(const ExactReport& report) {
  std::ostringstream os;
  os << "exact first-order glitch-extended verification: "
     << (report.any_leak ? "LEAKS" : "secure") << "\n";
  os << "unique probes: " << report.probes_total
     << ", leaking: " << report.probes_leaking
     << (report.any_skipped ? " (some probes skipped!)" : "") << "\n";
  for (const ExactProbeResult* p : report.leaking()) {
    os << "  LEAK at " << p->name << "  obs_bits=" << p->observation_bits
       << " tv=" << p->max_tv_distance << " witness secrets "
       << p->witness_a << " vs " << p->witness_b << "\n";
  }
  return os.str();
}

}  // namespace sca::verif
