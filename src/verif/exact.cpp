#include "src/verif/exact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/netlist/cone.hpp"
#include "src/sim/tape.hpp"
#include "src/verif/exact_detail.hpp"
#include "src/verif/unroll.hpp"

namespace sca::verif {

using common::require;
using netlist::GateKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

namespace detail {
namespace {

// Lane patterns for the first six enumeration index bits: bit j toggles
// with period 2^(j+1) across the 64 lanes of one block. In a wide SIMD
// block the next log2(limbs) bits stripe across limbs (limb i of bit 6+k
// is all-ones iff bit k of i is set), so lane L of a W-lane block still
// enumerates assignment L — the 64-lane layout, just wider.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// Observations up to this width are histogrammed by conjunction popcounts;
// wider ones by a 64x64 transpose and one per-lane key.
constexpr std::size_t kNarrowObservationBits = 8;

// Enumeration word of index bit `j` in wide block `block`: bit L of the
// word (lane numbering: bit L%64 of limb L/64) is bit j of the assignment
// index block * kLanes + L.
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

// One block of an enumeration over the cone: the variables' words (index
// bit bit_of[v] for variable v), and the cone's sim tape with its input
// slots driven from them and its observation slots read back. All buffers
// are sized to the analysis, none to the unrolled netlist.
template <unsigned kLimbs>
class ConeBlock {
 public:
  using Word = common::SimdWord<kLimbs>;
  static constexpr std::size_t kLaneBits = 6 + std::countr_zero(kLimbs);

  ConeBlock(const Analysis& a, std::vector<std::size_t> bit_of)
      : a_(a),
        bit_of_(std::move(bit_of)),
        var_words_(a.vars.size()),
        tape_(sim::compile_tape(a.cone, a.observation_pos)) {
    // Inputs the analysis never drives (public controls) stay zero.
    sim::reset_slots(tape_, kLimbs, slots_);
    for (const InputExpr& e : a.input_exprs)
      input_slot_.push_back(e.pos == kNoPos ? kNoPos : tape_.slot_of[e.pos]);
    for (const std::uint32_t pos : a.observation_pos)
      observed_slot_.push_back(tape_.slot_of[pos]);
  }

  std::size_t blocks() const {
    const std::size_t nv = a_.vars.size();
    return nv > kLaneBits ? std::size_t{1} << (nv - kLaneBits) : 1;
  }

  /// Drives the inputs for `block` and runs the cone; returns the lanes
  /// where some nonzero-constrained byte is all-zero. The skip set only
  /// involves free variables, so every secret keeps the same total.
  Word run(std::size_t block) {
    for (std::size_t v = 0; v < var_words_.size(); ++v)
      var_words_[v] = enumeration_word<kLimbs>(bit_of_[v], block);
    for (std::size_t i = 0; i < a_.input_exprs.size(); ++i) {
      if (input_slot_[i] == kNoPos) continue;
      Word w = Word::zero();
      for (const std::size_t v : a_.input_exprs[i].var_indices)
        w ^= var_words_[v];
      w.store(slots_.data() +
              static_cast<std::size_t>(input_slot_[i]) * kLimbs);
    }
    sim::run_tape<kLimbs>(tape_, slots_.data());
    Word skip = Word::zero();
    for (const auto& group : a_.nonzero_groups) {
      Word all_zero = Word::ones();
      for (const std::size_t v : group) all_zero &= ~var_words_[v];
      skip |= all_zero;
    }
    return skip;
  }

  const Word& var(std::size_t v) const { return var_words_[v]; }
  Word observed(std::size_t k) const {
    return Word::load(slots_.data() +
                      static_cast<std::size_t>(observed_slot_[k]) * kLimbs);
  }

 private:
  const Analysis& a_;
  std::vector<std::size_t> bit_of_;
  std::vector<Word> var_words_;
  sim::Tape tape_;
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint32_t> input_slot_;     ///< per input_exprs entry
  std::vector<std::uint32_t> observed_slot_;  ///< per observation bit
};

// Exact joint histogram of an analysis at one batch width, flat and
// secret-major (see ProbeDistribution::counts). The variables are ordered
// free first, secret bit k on index bit n_free + k, so the secret value of
// an assignment is its index >> n_free: constant within a word whenever
// n_free covers the lane bits, and otherwise (a small enumeration) selected
// per lane by a secret mask. Each (word, secret) histogram is counted per
// word — conjunction popcounts for narrow observations, a transpose and
// one table increment per kept lane for wide ones — so every width yields
// the identical counts.
template <unsigned kLimbs>
std::vector<std::uint32_t> enumerate_impl(const Analysis& a) {
  using Word = common::SimdWord<kLimbs>;
  constexpr std::size_t kLaneBits = ConeBlock<kLimbs>::kLaneBits;
  const std::size_t nv = a.vars.size();
  const std::size_t n_secret = a.secret_var_indices.size();
  const std::size_t n_free = nv - n_secret;
  const std::size_t n_obs = a.observation.size();

  std::vector<std::size_t> bit_of(nv);
  std::size_t next_free = 0;
  for (std::size_t v = 0; v < nv; ++v)
    if (a.vars[v].kind == Var::Kind::kFree) bit_of[v] = next_free++;
  for (std::size_t k = 0; k < n_secret; ++k)
    bit_of[a.secret_var_indices[k]] = n_free + k;
  ConeBlock<kLimbs> cone(a, std::move(bit_of));

  // secret_masks[t]: lanes whose in-word secret bits read t (and, below
  // one full block, whose index is < 2^nv). All-ones when the secret sits
  // entirely on block bits.
  const std::size_t word_secret_bits =
      n_free >= kLaneBits ? 0 : std::min(nv, kLaneBits) - n_free;
  std::vector<Word> secret_masks(std::size_t{1} << word_secret_bits,
                                 Word::ones());
  for (std::size_t t = 0; t < secret_masks.size(); ++t)
    for (std::size_t j = n_free; j < kLaneBits; ++j) {
      const Word pattern = enumeration_word<kLimbs>(j, 0);
      secret_masks[t] &= ((t >> (j - n_free)) & 1u) ? pattern : ~pattern;
    }

  std::vector<std::uint32_t> counts(std::size_t{1} << (n_secret + n_obs), 0);
  const bool narrow = n_obs <= kNarrowObservationBits;
  // Narrow: level d of the conjunction tree at offset 2^d - 1 — entry c
  // has a lane set iff that lane's first d observation bits read c.
  std::vector<Word> levels(narrow ? (std::size_t{2} << n_obs) - 1 : 0);
  // Wide: per limb, the transposed observation words (row L = lane L's
  // observation value).
  std::vector<std::array<std::uint64_t, 64>> keys(narrow ? 0 : kLimbs);

  for (std::size_t block = 0; block < cone.blocks(); ++block) {
    const Word keep = ~cone.run(block);
    if (!narrow)
      for (unsigned i = 0; i < kLimbs; ++i) {
        std::uint64_t* const m = keys[i].data();
        for (std::size_t k = 0; k < 64; ++k)
          m[k] = k < n_obs ? cone.observed(k).limb(i) : 0;
        common::transpose64(m);
      }
    const std::size_t secret_base = (block << kLaneBits) >> n_free;
    for (std::size_t t = 0; t < secret_masks.size(); ++t) {
      const Word mask = keep & secret_masks[t];
      std::uint32_t* const row = counts.data() + ((secret_base + t) << n_obs);
      if (!narrow) {
        for (unsigned i = 0; i < kLimbs; ++i)
          for (std::uint64_t x = mask.limb(i); x != 0; x &= x - 1)
            ++row[keys[i][std::countr_zero(x)]];
        continue;
      }
      levels[0] = mask;
      for (std::size_t d = 0; d < n_obs; ++d) {
        const Word w = cone.observed(d);
        const std::size_t cnt = std::size_t{1} << d;
        const Word* const src = levels.data() + (cnt - 1);
        Word* const dst = levels.data() + (2 * cnt - 1);
        for (std::size_t c = 0; c < cnt; ++c) {
          dst[c] = src[c] & ~w;
          dst[cnt + c] = src[c] & w;
        }
      }
      const std::size_t width = std::size_t{1} << n_obs;
      const Word* const leaves = levels.data() + (width - 1);
      for (std::size_t key = 0; key < width; ++key)
        row[key] += leaves[key].popcount();
    }
  }
  return counts;
}

// First enumeration assignment hitting (want_secret, want_obs), in the
// analysis variable order (bit j of the assignment index is vars[j]) — the
// order the certificate assignments are pinned in. Blocks whose block bits
// contradict the wanted secret hold no hit and are not evaluated; within a
// block the hits are one word of lanes, and the lowest lane is the first.
template <unsigned kLimbs>
std::optional<std::uint64_t> first_hit_impl(const Analysis& a,
                                            std::uint64_t want_secret,
                                            std::uint64_t want_obs) {
  using Word = common::SimdWord<kLimbs>;
  constexpr std::size_t kLaneBits = ConeBlock<kLimbs>::kLaneBits;
  std::vector<std::size_t> identity(a.vars.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  ConeBlock<kLimbs> cone(a, std::move(identity));

  const auto pick = [](std::uint64_t want, std::size_t k, const Word& w) {
    return ((want >> k) & 1u) ? w : ~w;
  };

  for (std::size_t block = 0; block < cone.blocks(); ++block) {
    bool possible = true;
    for (std::size_t k = 0; k < a.secret_var_indices.size(); ++k) {
      const std::size_t v = a.secret_var_indices[k];
      if (v >= kLaneBits && ((block >> (v - kLaneBits)) & 1u) !=
                                ((want_secret >> k) & 1u))
        possible = false;
    }
    if (!possible) continue;
    // Below one full block, lane L >= 2^nv repeats the assignment of lane
    // L mod 2^nv, so the lowest hit is always a real one.
    Word match = ~cone.run(block);
    for (std::size_t k = 0; k < a.secret_var_indices.size(); ++k)
      match &= pick(want_secret, k, cone.var(a.secret_var_indices[k]));
    for (std::size_t k = 0; k < a.observation.size(); ++k)
      match &= pick(want_obs, k, cone.observed(k));
    for (unsigned i = 0; i < kLimbs; ++i)
      if (const std::uint64_t m = match.limb(i); m != 0)
        return (block << kLaneBits) | (std::uint64_t{i} * 64) |
               static_cast<std::uint64_t>(std::countr_zero(m));
  }
  return std::nullopt;
}

// Per-thread cone-walk buffers. The whole-netlist maps are valid where the
// stamp equals `epoch`, so starting a walk costs nothing; they grow to the
// largest unrolled netlist the thread has walked.
struct WalkScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> pos;  ///< unrolled signal -> cone position
  std::uint32_t epoch = 0;
  std::vector<SignalId> stack;
  std::vector<SignalId> cone;
};

}  // namespace

// The engine holds everything derived from the netlist once, shared by all
// probe analyses. It sits in the named detail namespace (its helpers above
// are internal) so ProbeDistributionEngine::Impl can hold it without giving
// a class with external linkage an internal-linkage subobject.
class ExactEngine {
 public:
  ExactEngine(const Netlist& nl, const ExactOptions& options)
      : nl_(nl),
        options_(options),
        supports_(nl),
        lanes_(common::resolve_lanes(options.lanes)) {
    const std::size_t depth = sequential_depth(nl);
    const std::size_t extra = options.transitions ? 1 : 0;
    const std::size_t cycles =
        options.cycles ? options.cycles : depth + 1 + extra;
    require(cycles > depth + extra,
            "exact verifier: unroll depth must exceed sequential depth");
    unrolled_ = unroll(nl, cycles, options.held_inputs);
    input_index_.assign(unrolled_.nl.size(), kNoPos);
    for (std::size_t i = 0; i < unrolled_.nl.inputs().size(); ++i)
      input_index_[unrolled_.nl.inputs()[i].signal] =
          static_cast<std::uint32_t>(i);
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

  /// Variable structure and evaluation cone of an observation set. One
  /// walk over the unrolled netlist yields both the cone and its input
  /// support (the cone's inputs, ascending by unrolled id).
  Analysis analyze(const std::vector<SignalId>& observation) const {
    Analysis a;
    a.observation = observation;
    const Netlist& unl = unrolled_.nl;

    thread_local WalkScratch s;
    if (s.stamp.size() < unl.size()) {
      s.stamp.resize(unl.size(), 0);
      s.pos.resize(unl.size());
    }
    if (++s.epoch == 0) {
      std::fill(s.stamp.begin(), s.stamp.end(), 0);
      s.epoch = 1;
    }
    s.cone.clear();
    s.stack.assign(observation.begin(), observation.end());
    while (!s.stack.empty()) {
      const SignalId id = s.stack.back();
      s.stack.pop_back();
      if (s.stamp[id] == s.epoch) continue;
      s.stamp[id] = s.epoch;
      s.cone.push_back(id);
      const netlist::Gate& g = unl.gate(id);
      for (std::size_t k = 0; k < netlist::gate_arity(g.kind); ++k)
        s.stack.push_back(g.fanin[k]);
    }
    std::sort(s.cone.begin(), s.cone.end());
    for (std::size_t i = 0; i < s.cone.size(); ++i)
      s.pos[s.cone[i]] = static_cast<std::uint32_t>(i);
    const auto pos_of = [&](SignalId id) {
      return s.stamp[id] == s.epoch ? s.pos[id] : kNoPos;
    };
    a.cone.resize(s.cone.size());
    for (std::size_t i = 0; i < s.cone.size(); ++i) {
      const netlist::Gate& g = unl.gate(s.cone[i]);
      SCA_ASSERT(g.kind != GateKind::kReg,
                 "exact verifier: register in unrolled netlist");
      a.cone[i].kind = g.kind;
      for (std::size_t k = 0; k < netlist::gate_arity(g.kind); ++k)
        a.cone[i].fanin[k] = s.pos[g.fanin[k]];
    }
    for (const SignalId sig : observation)
      a.observation_pos.push_back(s.pos[sig]);

    // Bucket share inputs by (secret, bit, cycle); randoms become free vars.
    struct Bucket {
      std::vector<std::pair<std::uint32_t, SignalId>> shares;  // (share, sig)
    };
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::size_t>, Bucket>
        buckets;
    std::vector<SignalId> free_inputs;
    for (const SignalId sig : s.cone) {
      if (unl.kind(sig) != GateKind::kInput) continue;
      const std::uint32_t ii = input_index_[sig];
      const netlist::InputInfo& info = unl.inputs()[ii];
      switch (info.role) {
        case InputRole::kRandom:
          free_inputs.push_back(sig);
          break;
        case InputRole::kControl:
          // Public control inputs are fixed to 0 in this analysis.
          break;
        case InputRole::kShare:
          buckets[{info.share.secret, info.share.bit,
                   unrolled_.input_cycle[ii]}]
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
        const SignalId sig = bucket.shares[i].second;
        a.input_exprs.push_back(InputExpr{sig, {v}, pos_of(sig)});
      }
      std::vector<std::size_t> last_expr = share_vars;
      last_expr.push_back(secret_var);
      const SignalId last = bucket.shares.back().second;
      a.input_exprs.push_back(
          InputExpr{last, std::move(last_expr), pos_of(last)});
    }
    for (SignalId sig : free_inputs) {
      const std::size_t v = a.vars.size();
      a.vars.push_back(Var{Var::Kind::kFree, 0, 0});
      a.input_exprs.push_back(InputExpr{sig, {v}, pos_of(sig)});
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
          for (const SignalId id : uid) any = any || var_of_free.count(id) > 0;
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
            a.input_exprs.push_back(InputExpr{uid[i], {v}, pos_of(uid[i])});
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

  /// Exact joint histogram of an analysis, flat and secret-major; secret
  /// values pack the secret-bit variables in secret_var_indices order.
  /// Batch width per ExactOptions::lanes.
  std::vector<std::uint32_t> enumerate(const Analysis& a) const {
    switch (lanes_ / 64) {
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
    std::optional<std::uint64_t> hit;
    switch (lanes_ / 64) {
      case 4:
        hit = first_hit_impl<4>(a, want_secret, want_obs);
        break;
      case 8:
        hit = first_hit_impl<8>(a, want_secret, want_obs);
        break;
      default:
        hit = first_hit_impl<1>(a, want_secret, want_obs);
    }
    if (!hit) return {};
    std::vector<std::pair<std::string, bool>> out;
    out.reserve(a.input_exprs.size());
    for (const InputExpr& e : a.input_exprs) {
      std::uint64_t bit = 0;
      for (const std::size_t v : e.var_indices) bit ^= (*hit >> v) & 1u;
      out.emplace_back(unrolled_.nl.signal_name(e.input), bit != 0);
    }
    return out;
  }

 private:
  const Netlist& nl_;
  ExactOptions options_;
  netlist::StableSupport supports_;
  unsigned lanes_;
  Unrolled unrolled_;
  std::vector<std::uint32_t> input_index_;  ///< unrolled input -> index
};

}  // namespace detail

namespace {

// Total-variation distance between two equal-total count histograms.
double tv_distance(std::span<const std::uint32_t> p,
                   std::span<const std::uint32_t> q) {
  std::uint64_t total_p = 0, total_q = 0, abs_diff_doubled = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    total_p += p[i];
    total_q += q[i];
    abs_diff_doubled += p[i] > q[i] ? (p[i] - q[i]) : (q[i] - p[i]);
  }
  SCA_ASSERT(total_p == total_q, "tv_distance: histogram totals differ");
  if (total_p == 0) return 0.0;
  return 0.5 * static_cast<double>(abs_diff_doubled) /
         static_cast<double>(total_p);
}

}  // namespace

using detail::Analysis;
using detail::ExactEngine;

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
          const std::vector<std::uint32_t> counts = engine.enumerate(analysis);
          const std::size_t width = std::size_t{1} << observation.size();
          const std::span<const std::uint32_t> all(counts);
          for (std::size_t v = 1; v < (counts.size() >> observation.size());
               ++v) {
            const double tv = tv_distance(all.first(width),
                                          all.subspan(v * width, width));
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

Analysis ProbeDistributionEngine::analysis(SignalId probe) const {
  const ExactEngine& engine = impl_->engine;
  return engine.analyze(engine.observation_of(probe));
}

const Netlist& ProbeDistributionEngine::unrolled_netlist() const {
  return impl_->engine.unrolled_netlist();
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
