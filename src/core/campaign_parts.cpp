#include "src/core/campaign_parts.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/check.hpp"
#include "src/core/probes.hpp"
#include "src/netlist/cone.hpp"

namespace sca::eval::detail {

using common::CounterPrg;
using common::require;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

namespace {

// FNV-1a over the signal ids of a sorted observation vector — probe-set
// dedup key. The map still compares full vectors on hash collision, so a
// collision can never merge distinct sets.
struct ObservationHash {
  std::size_t operator()(const std::vector<SignalId>& v) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (SignalId s : v) {
      h ^= static_cast<std::uint64_t>(s);
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

std::string joined_names(const std::vector<Probe>& universe,
                         const std::vector<std::size_t>& set) {
  std::string name;
  for (std::size_t pi : set) {
    if (!name.empty()) name += " & ";
    name += universe[pi].name;
  }
  return name;
}

}  // namespace

PreparedSets prepare_probe_sets(const Netlist& nl,
                                const CampaignOptions& options) {
  const netlist::StableSupport supports(nl);
  const std::vector<Probe> universe =
      build_probe_universe(nl, supports, options.probe_scope_filter);
  require(!universe.empty(), "campaign: no probes (check probe_scope_filter)");

  PreparedSets out;
  out.stable_points = supports.stable_points();
  std::unordered_map<SignalId, std::size_t> dense_index;
  for (std::size_t i = 0; i < out.stable_points.size(); ++i)
    dense_index[out.stable_points[i]] = i;
  const std::size_t exact_limit =
      std::min<std::size_t>(options.max_observation_bits,
                            stats::FlatCountTable::kMaxDirectBits);
  const bool transitions = options.model == ProbeModel::kGlitchTransition;

  std::unordered_map<std::vector<SignalId>, std::size_t, ObservationHash> seen;
  const auto sets = enumerate_probe_sets(universe.size(), options.order);
  seen.reserve(sets.size());
  for (const auto& set : sets) {
    std::vector<SignalId> observed = union_observation(universe, set);
    if (auto it = seen.find(observed); it != seen.end()) {
      out.sets[it->second].aliases.push_back(joined_names(universe, set));
      continue;
    }
    if (options.max_probe_sets && out.sets.size() >= options.max_probe_sets) {
      ++out.dropped;
      continue;
    }
    PreparedSet p;
    p.name = joined_names(universe, set);
    for (std::size_t pi : set)
      p.representatives.push_back(universe[pi].representative);
    if (set.size() == 1) p.aliases = universe[set[0]].aliases;
    p.dense.reserve(observed.size());
    for (SignalId sig : observed) p.dense.push_back(dense_index.at(sig));
    p.observation_bits = observed.size() * (transitions ? 2 : 1);
    p.compacted = p.observation_bits > exact_limit;
    seen.emplace(std::move(observed), out.sets.size());
    out.sets.push_back(std::move(p));
  }
  for (const PreparedSet& p : out.sets) out.aliases += p.aliases.size();
  return out;
}

unsigned hp_bits(std::size_t signals, bool transitions) {
  return transitions ? static_cast<unsigned>(std::bit_width(signals)) : 0;
}

unsigned table_key_bits(const PreparedSet& p, bool transitions, bool ttest) {
  if (ttest) return static_cast<unsigned>(std::bit_width(p.observation_bits));
  if (!p.compacted) return static_cast<unsigned>(p.observation_bits);
  return static_cast<unsigned>(std::bit_width(p.dense.size())) +
         hp_bits(p.dense.size(), transitions);
}

stats::TTestResult hw_t_test(const stats::FlatCountTable& table) {
  std::array<stats::MomentAccumulator, 2> moments;
  std::vector<std::uint64_t> hist(std::size_t{1} << table.key_bits());
  for (std::size_t group = 0; group < 2; ++group) {
    for (std::size_t hw = 0; hw < hist.size(); ++hw)
      hist[hw] = table.counts_for(hw)[group];
    moments[group].add_weighted_histogram(hist.data(), hist.size());
  }
  return stats::welch_t_test(moments[0], moments[1]);
}

InputFeeder::InputFeeder(const Netlist& nl, const CampaignOptions& options)
    : warmup_cycles(options.warmup_cycles),
      samples_per_run(std::max<std::size_t>(1, options.samples_per_run)),
      sample_interval(options.sample_interval),
      cycles_per_group(warmup_cycles + samples_per_run * sample_interval),
      nonzero_buses_(options.nonzero_random_buses),
      null_calibration_(options.null_calibration) {
  std::map<std::uint32_t, Group> by_secret;
  for (const auto& in : nl.inputs()) {
    if (in.role != InputRole::kShare) continue;
    Group& g = by_secret[in.share.secret];
    if (g.share_bits.size() <= in.share.share)
      g.share_bits.resize(in.share.share + 1);
    auto& bits = g.share_bits[in.share.share];
    if (bits.size() <= in.share.bit)
      bits.resize(in.share.bit + 1, netlist::kNoSignal);
    bits[in.share.bit] = in.signal;
    g.bits = std::max(g.bits, in.share.bit + 1);
  }
  require(!by_secret.empty(), "campaign: netlist declares no share inputs");
  std::uint32_t slots = 0;
  for (auto& [secret, g] : by_secret) {
    require(g.bits <= 8, "campaign: secret groups wider than 8 bits unsupported");
    for (const auto& share : g.share_bits) {
      require(share.size() == g.bits, "campaign: ragged share inputs");
      for (SignalId s : share)
        require(s != netlist::kNoSignal, "campaign: missing share input bit");
    }
    const std::uint8_t value_mask =
        g.bits >= 8 ? std::uint8_t{0xFF}
                    : static_cast<std::uint8_t>((1u << g.bits) - 1);
    if (auto it = options.fixed_values.find(secret);
        it != options.fixed_values.end())
      g.fixed_byte = static_cast<std::uint8_t>(it->second & value_mask);
    g.secret_slot = slots++;
    g.shares_slot0 = slots;
    slots += static_cast<std::uint32_t>(g.share_bits.size() - 1);
    groups_.push_back(std::move(g));
  }

  std::unordered_set<SignalId> nonzero_members;
  for (const auto& bus : nonzero_buses_)
    for (SignalId s : bus) nonzero_members.insert(s);
  for (const auto& in : nl.inputs())
    if (in.role == InputRole::kRandom && !nonzero_members.contains(in.signal))
      plain_randoms_.push_back(in.signal);
  plain_slot0_ = slots;
  bus_slot0_ = slots + static_cast<std::uint32_t>(plain_randoms_.size());
}

}  // namespace sca::eval::detail
