#include "src/core/campaign_parts.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// SCA_DEBUG_SETS=1 prints the prepared sets' width histogram to stderr.
void debug_print_sets(const std::vector<PreparedSet>& sets) {
  if (!std::getenv("SCA_DEBUG_SETS")) return;
  std::map<std::size_t, std::size_t> exact_hist, compact_hist;
  for (const auto& p : sets)
    (p.compacted ? compact_hist : exact_hist)[p.observation_bits]++;
  std::fprintf(stderr, "sets=%zu exact:", sets.size());
  for (auto [b, n] : exact_hist) std::fprintf(stderr, " %zub x%zu", b, n);
  std::fprintf(stderr, " | compacted:");
  for (auto [b, n] : compact_hist) std::fprintf(stderr, " %zub x%zu", b, n);
  std::fprintf(stderr, "\n");
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
  debug_print_sets(out.sets);
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

void InputFeeder::feed_cycle(sim::Simulator& simulator, const CounterPrg& prg,
                             std::size_t run0, unsigned active, int group,
                             std::size_t cycle_in_group) const {
  constexpr unsigned kMaxLimbs = 8;
  std::uint64_t cyc[kMaxLimbs];
  for (unsigned b = 0; b < active; ++b)
    cyc[b] = (static_cast<std::uint64_t>(run0 + b) * 2 +
              static_cast<std::uint64_t>(group)) *
                 cycles_per_group +
             cycle_in_group;
  const bool fixed_group = group == 0;
  std::uint64_t acc[8][kMaxLimbs];
  std::uint64_t mask_plane[8][kMaxLimbs];
  for (const Group& g : groups_) {
    if (fixed_group && !null_calibration_) {
      for (std::uint32_t p = 0; p < g.bits; ++p) {
        const std::uint64_t w =
            (g.fixed_byte >> p) & 1u ? ~std::uint64_t{0} : 0;
        for (unsigned b = 0; b < active; ++b) acc[p][b] = w;
      }
    } else {
      for (unsigned b = 0; b < active; ++b) {
        const CounterPrg::Stream s = prg.stream(cyc[b], g.secret_slot);
        for (std::uint32_t p = 0; p < g.bits; ++p)
          acc[p][b] = CounterPrg::word_at(s, p);
      }
    }
    const std::size_t num_shares = g.share_bits.size();
    for (std::size_t sh = 0; sh + 1 < num_shares; ++sh) {
      for (unsigned b = 0; b < active; ++b) {
        const CounterPrg::Stream s = prg.stream(
            cyc[b], g.shares_slot0 + static_cast<std::uint32_t>(sh));
        for (std::uint32_t p = 0; p < g.bits; ++p) {
          const std::uint64_t m = CounterPrg::word_at(s, p);
          mask_plane[p][b] = m;
          acc[p][b] ^= m;
        }
      }
      for (std::uint32_t p = 0; p < g.bits; ++p) {
        std::uint64_t* dst = simulator.input_limbs(g.share_bits[sh][p]);
        for (unsigned b = 0; b < active; ++b) dst[b] = mask_plane[p][b];
      }
    }
    for (std::uint32_t p = 0; p < g.bits; ++p) {
      std::uint64_t* dst =
          simulator.input_limbs(g.share_bits[num_shares - 1][p]);
      for (unsigned b = 0; b < active; ++b) dst[b] = acc[p][b];
    }
  }
  for (std::size_t i = 0; i < plain_randoms_.size(); ++i) {
    std::uint64_t* dst = simulator.input_limbs(plain_randoms_[i]);
    const std::uint32_t slot = plain_slot0_ + static_cast<std::uint32_t>(i);
    for (unsigned b = 0; b < active; ++b)
      dst[b] = CounterPrg::word_at(prg.stream(cyc[b], slot), 0);
  }
  for (std::size_t bi = 0; bi < nonzero_buses_.size(); ++bi) {
    const gadgets::Bus& bus = nonzero_buses_[bi];
    const std::uint32_t slot = bus_slot0_ + static_cast<std::uint32_t>(bi);
    const std::size_t nbits = bus.size();
    SCA_ASSERT(nbits >= 1 && nbits <= 8,
               "campaign: nonzero buses are 1..8 bits");
    std::uint64_t planes[8][kMaxLimbs];
    for (unsigned b = 0; b < active; ++b) {
      const CounterPrg::Stream s = prg.stream(cyc[b], slot);
      std::uint64_t pl[8];
      std::uint64_t nonzero = 0;
      for (std::size_t p = 0; p < nbits; ++p) {
        pl[p] = CounterPrg::word_at(s, static_cast<std::uint32_t>(p));
        nonzero |= pl[p];
      }
      std::uint32_t widx = 8;
      for (std::uint64_t zero = ~nonzero; zero; widx += 8) {
        std::uint64_t redrawn = 0;
        for (std::size_t p = 0; p < nbits; ++p) {
          const std::uint64_t d =
              CounterPrg::word_at(s, widx + static_cast<std::uint32_t>(p));
          pl[p] |= d & zero;
          redrawn |= d;
        }
        zero &= ~redrawn;
      }
      for (std::size_t p = 0; p < nbits; ++p) planes[p][b] = pl[p];
    }
    for (std::size_t p = 0; p < nbits; ++p) {
      std::uint64_t* dst = simulator.input_limbs(bus[p]);
      for (unsigned b = 0; b < active; ++b) dst[b] = planes[p][b];
    }
  }
}

void produce_samples(sim::Simulator& simulator, const InputFeeder& feeder,
                     const CounterPrg& prg, std::size_t run, unsigned active,
                     bool transitions, const std::vector<SignalId>& rows,
                     std::vector<Sample>& out) {
  const unsigned limbs = simulator.limbs();
  const auto snapshot = [&](std::vector<std::uint64_t>& into) {
    into.resize(rows.size() * limbs);
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::memcpy(into.data() + i * limbs, simulator.value_limbs(rows[i]),
                  limbs * sizeof(std::uint64_t));
  };
  // Samples are overwritten in place, so a reused buffer keeps its rows'
  // storage from one wide run to the next.
  out.resize(2 * feeder.samples_per_run);
  auto sample = out.begin();
  for (int group = 0; group < 2; ++group) {
    simulator.reset();
    // A sample in the first cycle after the reset (no warmup) sees the
    // all-zero reset state as its previous cycle.
    std::size_t next = feeder.warmup_cycles + feeder.sample_interval - 1;
    if (transitions && next == 0) sample->prev.assign(rows.size() * limbs, 0);
    for (std::size_t cycle = 0; cycle < feeder.cycles_per_group; ++cycle) {
      feeder.feed_cycle(simulator, prg, run, active, group, cycle);
      simulator.settle();
      if (cycle == next) {
        sample->group = group;
        sample->active = active;
        snapshot(sample->now);
        ++sample;
        next += feeder.sample_interval;
      }
      if (transitions && cycle + 1 == next && next < feeder.cycles_per_group)
        snapshot(sample->prev);
      simulator.clock();
    }
  }
}

}  // namespace sca::eval::detail
