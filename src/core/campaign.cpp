#include "src/core/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/accplan.hpp"
#include "src/core/checkpoint.hpp"
#include "src/sim/simulator.hpp"

namespace sca::eval {

using common::CounterPrg;
using common::require;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

namespace {

// Share inputs of one secret group arranged as [share][bit] -> signal, plus
// the per-campaign constants of the group (value mask, fixed-group secret)
// hoisted out of the per-cycle input-feeding loop.
struct GroupInputs {
  std::uint32_t group = 0;
  std::vector<std::vector<SignalId>> share_bits;  // [share][bit]
  std::uint32_t bits = 0;
  std::uint8_t value_mask = 0;   // (1 << bits) - 1
  std::uint8_t fixed_byte = 0;   // fixed-group secret, pre-masked
};

std::vector<GroupInputs> collect_groups(
    const Netlist& nl,
    const std::map<std::uint32_t, std::uint8_t>& fixed_values) {
  std::map<std::uint32_t, GroupInputs> groups;
  for (const auto& in : nl.inputs()) {
    if (in.role != InputRole::kShare) continue;
    GroupInputs& g = groups[in.share.secret];
    g.group = in.share.secret;
    if (g.share_bits.size() <= in.share.share)
      g.share_bits.resize(in.share.share + 1);
    auto& bits = g.share_bits[in.share.share];
    if (bits.size() <= in.share.bit) bits.resize(in.share.bit + 1, netlist::kNoSignal);
    bits[in.share.bit] = in.signal;
    g.bits = std::max(g.bits, in.share.bit + 1);
  }
  std::vector<GroupInputs> out;
  for (auto& [id, g] : groups) {
    require(g.bits <= 8, "campaign: secret groups wider than 8 bits unsupported");
    for (const auto& share : g.share_bits) {
      require(share.size() == g.bits, "campaign: ragged share inputs");
      for (SignalId s : share)
        require(s != netlist::kNoSignal, "campaign: missing share input bit");
    }
    g.value_mask = g.bits >= 8 ? std::uint8_t{0xFF}
                               : static_cast<std::uint8_t>((1u << g.bits) - 1);
    if (auto it = fixed_values.find(g.group); it != fixed_values.end())
      g.fixed_byte = static_cast<std::uint8_t>(it->second & g.value_mask);
    out.push_back(std::move(g));
  }
  require(!out.empty(), "campaign: netlist declares no share inputs");
  return out;
}

// One evaluated probe set after union-dedup: the union of the constituent
// probes' observations, as dense stable indices.
struct PreparedSet {
  std::string name;
  std::vector<SignalId> representatives;
  std::vector<std::size_t> dense;  // indices into stable_points
  std::size_t observation_bits = 0;
  bool compacted = false;
  std::vector<std::string> aliases;  // folded probes / probe sets
  // Master accumulator: observation counts (G-test), or per-group
  // Hamming-weight histograms keyed by weight (t-test).
  stats::FlatCountTable table;
};

// One buffered sample: the observation-matrix row values at the sample cycle
// and, for transition models, the cycle before. Row-major limb layout over
// the batch plan's rows (the union of the live sets' observed points): the
// limbs() lane words of matrix row r sit at [r * limbs, (r + 1) * limbs), so
// an observation word loads as one SimdWord. `active` is the number of limbs
// carrying real runs (the last wide run of a chunk may be a tail; inactive
// limbs hold don't-care values and are never accumulated).
struct Sample {
  std::vector<std::uint64_t> now;
  std::vector<std::uint64_t> prev;
  int group = 0;
  unsigned active = 1;
};

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

// Per-worker scratch: a private simulator over the shared schedule,
// reusable snapshot buffers, bit-sliced accumulation scratch, per-phase
// timers — and the worker-lifetime count tables of the batch's live sets.
// Every table materializes its whole key space, so merging is a
// commutative integer add: a worker accumulates across every cell it runs
// and folds into the master exactly once (the thread pool's finalize hook),
// in any worker order, without costing determinism.
struct WorkerCtx {
  explicit WorkerCtx(const sim::Schedule& schedule) : simulator(schedule) {}
  sim::Simulator simulator;
  std::vector<std::uint64_t> prev_snapshot;
  std::vector<stats::FlatCountTable> tables;
  std::vector<std::uint64_t> block_scratch;  // packed-regime staging tiles
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double extract_seconds = 0.0;
  double transpose_seconds = 0.0;
  double histogram_seconds = 0.0;
};

// Exact probe sets at or below this observation width use the
// conjunction-popcount histogram (no transpose, no per-lane work). 8 balances
// the 2^bits expansion cost against the transpose path's per-lane table
// updates (measured via SCA_DEBUG_ACC on the E2 campaign; the expansion
// is one vector op per combo, so it wins as long as the per-key popcount
// vectorizes).
constexpr std::size_t kPopcountBits = 8;

// SCA_DEBUG_ACC=1 breaks the accumulate phase down by path (cumulative
// process-wide nanoseconds, printed to stderr after every campaign) — the
// profiling hook behind the kernel's throughput tuning.
struct AccPathNanos {
  std::atomic<std::uint64_t> ttest{0};
  std::atomic<std::uint64_t> scalar{0};
  std::atomic<std::uint64_t> compacted{0};
  std::atomic<std::uint64_t> narrow{0};
  std::atomic<std::uint64_t> packed{0};
};
AccPathNanos g_acc_path_nanos;

bool acc_debug_enabled() {
  static const bool on = std::getenv("SCA_DEBUG_ACC") != nullptr;
  return on;
}

void report_acc_debug() {
  if (!acc_debug_enabled()) return;
  const AccPathNanos& n = g_acc_path_nanos;
  std::fprintf(stderr,
               "accumulate paths (cumulative): ttest %.3fs scalar %.3fs "
               "compacted %.3fs narrow %.3fs packed %.3fs\n",
               n.ttest.load() * 1e-9, n.scalar.load() * 1e-9,
               n.compacted.load() * 1e-9, n.narrow.load() * 1e-9,
               n.packed.load() * 1e-9);
}

void debug_charge(std::atomic<std::uint64_t>& bucket,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  if (acc_debug_enabled())
    bucket += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Stage-count resolution, mirroring resolve_threads: an explicit request
// wins, else the SCA_STAGES environment variable, else 1 (the classic
// single-pass campaign).
unsigned resolve_stages(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SCA_STAGES")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 1;
}

// A compacted n-signal set keys its table by its Hamming-weight pair
// (hn << w) | hp: hn the sample cycle's weight, hp the previous cycle's
// weight in the low w = bit_width(n) bits — or, without transitions, by hn
// alone (w = 0). Ascending keys are then ascending (hn, hp), the G-test's
// column order.
unsigned hp_bits(std::size_t signals, bool transitions) {
  return transitions ? static_cast<unsigned>(std::bit_width(signals)) : 0;
}

// Key space of a set's count table: an exact set's observation bits, a
// compacted set's weight pair (see hp_bits), or under the t-test the
// observation's Hamming weight.
unsigned table_key_bits(const PreparedSet& p, bool transitions, bool ttest) {
  if (ttest) return static_cast<unsigned>(std::bit_width(p.observation_bits));
  if (!p.compacted) return static_cast<unsigned>(p.observation_bits);
  return static_cast<unsigned>(std::bit_width(p.dense.size())) +
         hp_bits(p.dense.size(), transitions);
}

// Welch t-test of a set's Hamming-weight table: each group's histogram is
// folded into Welford moments in ascending-weight order, so t is a pure
// function of the integer counts.
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

}  // namespace

std::vector<const ProbeSetResult*> CampaignResult::top(std::size_t n) const {
  std::vector<const ProbeSetResult*> out;
  for (const auto& r : results) {
    if (out.size() >= n) break;
    out.push_back(&r);
  }
  return out;
}

CampaignResult run_fixed_vs_random(const Netlist& nl,
                                   const CampaignOptions& options) {
  nl.validate();
  require(options.order >= 1 && options.order <= 2,
          "campaign: supported orders are 1 and 2");
  require(options.sample_interval >= 1, "campaign: sample_interval must be >= 1");
  const bool ttest = options.statistic == Statistic::kWelchTTest;
  require(!ttest || options.order == 1,
          "campaign: the Welch t-test statistic supports order 1 only");

  const netlist::StableSupport supports(nl);
  const std::vector<Probe> universe =
      build_probe_universe(nl, supports, options.probe_scope_filter);
  require(!universe.empty(), "campaign: no probes (check probe_scope_filter)");

  const std::vector<SignalId>& stable_points = supports.stable_points();
  std::unordered_map<SignalId, std::size_t> dense_index;
  for (std::size_t i = 0; i < stable_points.size(); ++i)
    dense_index[stable_points[i]] = i;

  // Observations wider than this are compacted to Hamming weights, so every
  // exact set's key space fits a materialized count table.
  const std::size_t exact_limit =
      std::min<std::size_t>(options.max_observation_bits,
                            stats::FlatCountTable::kMaxDirectBits);

  // Enumerate probe sets and dedupe by union observation: a pair whose union
  // equals another set's union (including any single probe) is statistically
  // identical, so only the first instance is evaluated — later hits ride
  // along as aliases of the canonical set (the verdict fan-out), and probes
  // folded at universe build seed the order-1 sets' alias lists.
  const bool transitions = options.model == ProbeModel::kGlitchTransition;
  std::vector<PreparedSet> prepared;
  std::size_t dropped = 0;
  {
    std::unordered_map<std::vector<SignalId>, std::size_t, ObservationHash>
        seen;
    const auto sets = enumerate_probe_sets(universe.size(), options.order);
    seen.reserve(sets.size());
    for (const auto& set : sets) {
      std::vector<SignalId> observed = union_observation(universe, set);
      if (auto it = seen.find(observed); it != seen.end()) {
        std::string alias;
        for (std::size_t pi : set) {
          if (!alias.empty()) alias += " & ";
          alias += universe[pi].name;
        }
        prepared[it->second].aliases.push_back(std::move(alias));
        continue;
      }
      if (options.max_probe_sets && prepared.size() >= options.max_probe_sets) {
        ++dropped;
        continue;
      }
      const auto [seen_it, inserted] =
          seen.emplace(std::move(observed), prepared.size());
      SCA_ASSERT(inserted, "campaign: probe-set dedup raced");
      const std::vector<SignalId>& obs = seen_it->first;
      PreparedSet p;
      for (std::size_t pi : set) {
        if (!p.name.empty()) p.name += " & ";
        p.name += universe[pi].name;
        p.representatives.push_back(universe[pi].representative);
      }
      if (set.size() == 1) p.aliases = universe[set[0]].aliases;
      p.dense.reserve(obs.size());
      for (SignalId sig : obs) p.dense.push_back(dense_index.at(sig));
      p.observation_bits = obs.size() * (transitions ? 2 : 1);
      p.compacted = p.observation_bits > exact_limit;
      p.table = stats::FlatCountTable(table_key_bits(p, transitions, ttest));
      prepared.push_back(std::move(p));
    }
  }
  std::size_t aliased_probe_sets = 0;
  for (const PreparedSet& p : prepared) aliased_probe_sets += p.aliases.size();

  if (std::getenv("SCA_DEBUG_SETS")) {
    std::map<std::size_t, std::size_t> exact_hist, compact_hist;
    for (const auto& p : prepared)
      (p.compacted ? compact_hist : exact_hist)[p.observation_bits]++;
    std::fprintf(stderr, "sets=%zu exact:", prepared.size());
    for (auto [b, n] : exact_hist) std::fprintf(stderr, " %zub x%zu", b, n);
    std::fprintf(stderr, " | compacted:");
    for (auto [b, n] : compact_hist) std::fprintf(stderr, " %zub x%zu", b, n);
    std::fprintf(stderr, "\n");
  }

  const std::vector<GroupInputs> groups =
      collect_groups(nl, options.fixed_values);

  std::vector<SignalId> plain_randoms;
  {
    std::unordered_set<SignalId> nonzero_members;
    for (const auto& bus : options.nonzero_random_buses)
      for (SignalId s : bus) nonzero_members.insert(s);
    for (const auto& in : nl.inputs())
      if (in.role == InputRole::kRandom && !nonzero_members.contains(in.signal))
        plain_randoms.push_back(in.signal);
  }

  // Lane width and kernel: the compiled levelized tape at the resolved
  // width by default, the interpreted 64-lane reference on request (the
  // oracle the tape is tested against). The campaign only ever reads
  // stable points, so the tape is dead-gate-eliminated against them.
  require(!options.interpreted_kernel || options.lanes == 0 ||
              options.lanes == 64,
          "campaign: the interpreted oracle kernel runs 64 lanes only");
  const unsigned lanes =
      options.interpreted_kernel ? 64 : common::resolve_lanes(options.lanes);
  const unsigned limbs = lanes / 64;
  constexpr unsigned kMaxLimbs = 8;

  // Shared read-only evaluation plan; every worker simulator runs over it.
  sim::ScheduleOptions schedule_options;
  schedule_options.lanes = lanes;
  schedule_options.compile = !options.interpreted_kernel;
  schedule_options.observed = stable_points;
  const sim::Schedule schedule(nl, schedule_options);
  const unsigned threads = common::resolve_threads(options.threads);

  // Fresh randomness comes from the counter-mode PRG: every drawn word is
  // a pure function of (seed, cycle, slot, word index), where `cycle` is
  // the absolute simulated cycle of a 64-lane run,
  //
  //   cycle = (run * 2 + group) * cycles_per_group + cycle_in_group,
  //
  // and `slot` numbers the fresh-randomness consumers statically: per
  // secret group one secret slot and one slot per drawn share, then the
  // plain random inputs, then the nonzero buses. Addressing draws by
  // absolute run (not by chunk stream position) is what makes the
  // statistics bit-identical for every lane width, thread count, chunk
  // partition, and checkpoint/resume split.
  struct GroupSlots {
    std::uint32_t secret = 0;
    std::uint32_t shares0 = 0;  // slot of share 0; share sh at shares0 + sh
  };
  std::vector<GroupSlots> group_slots;
  std::uint32_t prg_slots = 0;
  for (const GroupInputs& g : groups) {
    GroupSlots gs;
    gs.secret = prg_slots++;
    gs.shares0 = prg_slots;
    prg_slots += static_cast<std::uint32_t>(g.share_bits.size() - 1);
    group_slots.push_back(gs);
  }
  const std::uint32_t plain_slot0 = prg_slots;
  prg_slots += static_cast<std::uint32_t>(plain_randoms.size());
  const std::uint32_t bus_slot0 = prg_slots;
  prg_slots += static_cast<std::uint32_t>(options.nonzero_random_buses.size());

  const std::size_t samples_per_run =
      std::max<std::size_t>(1, options.samples_per_run);
  const std::size_t cycles_per_group =
      options.warmup_cycles + samples_per_run * options.sample_interval;

  // Feeds one cycle of inputs for a wide run covering the 64-lane runs
  // [run0, run0 + active). Secrets and masks are drawn directly as bit
  // planes (word index = bit plane), XOR-sharing happens in plane space,
  // and nonzero bytes are rejection-sampled in plane space: a lane whose
  // drawn byte is zero takes the next 8-word block of its stream until
  // every lane is nonzero.
  // Null calibration turns the campaign into random-vs-random: the "fixed"
  // group draws fresh secrets too (from the same counter coordinates), so
  // the null hypothesis holds by construction and any verdict is a false
  // positive of the statistic.
  const bool null_calibration = options.null_calibration;
  auto feed_cycle = [&](sim::Simulator& simulator, const CounterPrg& prg,
                        std::size_t run0, unsigned active, int group,
                        std::size_t cycle_in_group) {
    std::uint64_t cyc[kMaxLimbs];
    for (unsigned b = 0; b < active; ++b)
      cyc[b] = (static_cast<std::uint64_t>(run0 + b) * 2 +
                static_cast<std::uint64_t>(group)) *
                   cycles_per_group +
               cycle_in_group;
    const bool fixed_group = group == 0;
    std::uint64_t acc[8][kMaxLimbs];
    std::uint64_t mask_plane[8][kMaxLimbs];
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const GroupInputs& g = groups[gi];
      const GroupSlots& gs = group_slots[gi];
      if (fixed_group && !null_calibration) {
        for (std::uint32_t p = 0; p < g.bits; ++p) {
          const std::uint64_t w =
              (g.fixed_byte >> p) & 1u ? ~std::uint64_t{0} : 0;
          for (unsigned b = 0; b < active; ++b) acc[p][b] = w;
        }
      } else {
        for (unsigned b = 0; b < active; ++b) {
          const CounterPrg::Stream s = prg.stream(cyc[b], gs.secret);
          for (std::uint32_t p = 0; p < g.bits; ++p)
            acc[p][b] = CounterPrg::word_at(s, p);
        }
      }
      const std::size_t num_shares = g.share_bits.size();
      for (std::size_t sh = 0; sh + 1 < num_shares; ++sh) {
        for (unsigned b = 0; b < active; ++b) {
          const CounterPrg::Stream s =
              prg.stream(cyc[b], gs.shares0 + static_cast<std::uint32_t>(sh));
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
    for (std::size_t i = 0; i < plain_randoms.size(); ++i) {
      std::uint64_t* dst = simulator.input_limbs(plain_randoms[i]);
      const std::uint32_t slot = plain_slot0 + static_cast<std::uint32_t>(i);
      for (unsigned b = 0; b < active; ++b)
        dst[b] = CounterPrg::word_at(prg.stream(cyc[b], slot), 0);
    }
    for (std::size_t bi = 0; bi < options.nonzero_random_buses.size(); ++bi) {
      const gadgets::Bus& bus = options.nonzero_random_buses[bi];
      const std::uint32_t slot = bus_slot0 + static_cast<std::uint32_t>(bi);
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
  };

  // Samples snapshot exactly the batch plan's observation-matrix rows —
  // the union of the live sets' observed points — not the full stable set.
  auto snapshot_rows = [&](const sim::Simulator& simulator,
                           const std::vector<SignalId>& row_signals,
                           std::vector<std::uint64_t>& into) {
    into.resize(row_signals.size() * limbs);
    std::uint64_t* out = into.data();
    for (std::size_t i = 0; i < row_signals.size(); ++i)
      std::memcpy(out + i * limbs, simulator.value_limbs(row_signals[i]),
                  limbs * sizeof(std::uint64_t));
  };

  // Executes one shard of the batch's compiled accumulation plan over a
  // buffer of samples. Regime-homogeneous phases replace the old per-set
  // dispatch:
  //
  //  * t-test: per-lane Hamming weights from a vertical counter (bit-sliced)
  //    or the per-bit scalar reference.
  //  * scalar oracle: the per-bit reference loop over every set, untouched
  //    by plan structure (the plan compiles with fuse = false, so no set is
  //    hosted and no work is shared — the oracle stays an oracle).
  //  * narrow (trie): one straight-line conjunction program per shard whose
  //    expansion ops are shared across sets with a common observation
  //    prefix; emits popcount a whole 2^bits histogram per limb word.
  //  * compacted: Hamming-weight pairs histogrammed in plane space.
  //  * packed: shared transpose blocks staged per sample tile — gather the
  //    blocks' matrix rows (extract), transpose each 64x64 block once
  //    (transpose), then every packed set pext-gathers its key bits from
  //    the transposed columns (histogram). One transpose serves every set
  //    touching the block.
  //
  // The bit-sliced path never leaves lane-word space until the final
  // histogram update, and inactive tail limbs are never read. Both paths
  // add identical integer counts to order-free count tables, so their
  // statistics are bit-identical (asserted by tests).
  const bool bitsliced = options.accumulation == Accumulation::kBitSliced;
  auto accumulate_impl = [&]<unsigned kLimbs>(
                             const accplan::AccumulationPlan& plan,
                             const std::vector<Sample>& buf,
                             std::size_t shard_idx, WorkerCtx& ctx) {
    using Word = common::SimdWord<kLimbs>;
    const accplan::ShardProgram& prog = plan.shards[shard_idx];
    const std::size_t num_rows = plan.rows.size();
    const auto code_word = [&](const Sample& sample, std::uint32_t code) {
      return code < num_rows
                 ? Word::load(sample.now.data() +
                              static_cast<std::size_t>(code) * kLimbs)
                 : Word::load(sample.prev.data() +
                              (static_cast<std::size_t>(code) - num_rows) *
                                  kLimbs);
    };
    const auto code_limb = [&](const Sample& sample, std::size_t code,
                               unsigned b) {
      return code < num_rows ? sample.now[code * kLimbs + b]
                             : sample.prev[(code - num_rows) * kLimbs + b];
    };

    if (ttest) {
      const auto t0 = std::chrono::steady_clock::now();
      common::WideVerticalCounter<kLimbs> vc;
      std::array<std::uint16_t, 64> hw{};
      for (std::uint32_t l : prog.ttest) {
        const accplan::SetAccPlan& sp = plan.sets[l];
        for (const Sample& sample : buf) {
          // Weight w of this sample's group counts at entry 2 * w.
          std::uint64_t* const h =
              ctx.tables[l].data() + static_cast<std::size_t>(sample.group);
          if (bitsliced) {
            // TVLA: per-lane Hamming weight of the (extended) observation,
            // all lanes per vertical-counter pass.
            vc.clear();
            for (std::uint32_t r : sp.rows) vc.add(code_word(sample, r));
            if (transitions)
              for (std::uint32_t r : sp.rows)
                vc.add(code_word(
                    sample, r + static_cast<std::uint32_t>(num_rows)));
            for (unsigned b = 0; b < sample.active; ++b) {
              vc.lane_counts(b, hw.data());
              for (unsigned lane = 0; lane < 64; ++lane) ++h[2 * hw[lane]];
            }
          } else {
            for (unsigned b = 0; b < sample.active; ++b) {
              for (unsigned lane = 0; lane < 64; ++lane) {
                unsigned w = 0;
                for (std::uint32_t r : sp.rows) {
                  w += (sample.now[r * kLimbs + b] >> lane) & 1u;
                  if (transitions)
                    w += (sample.prev[r * kLimbs + b] >> lane) & 1u;
                }
                ++h[2 * w];
              }
            }
          }
        }
      }
      debug_charge(g_acc_path_nanos.ttest, t0, std::chrono::steady_clock::now());
      return;
    }

    if (!bitsliced) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t l = 0; l < plan.sets.size(); ++l) {
        const accplan::SetAccPlan& sp = plan.sets[l];
        stats::FlatCountTable& table = ctx.tables[l];
        const bool compacted = sp.regime == accplan::AccRegime::kCompacted;
        const unsigned hw_shift = hp_bits(sp.rows.size(), transitions);
        for (const Sample& sample : buf) {
          for (unsigned b = 0; b < sample.active; ++b) {
            for (unsigned lane = 0; lane < 64; ++lane) {
              std::uint64_t key;
              if (compacted) {
                // Compact mode: per-cycle Hamming weight of the observation.
                unsigned hn = 0, hp = 0;
                for (std::uint32_t r : sp.rows) {
                  hn += (sample.now[r * kLimbs + b] >> lane) & 1u;
                  if (transitions)
                    hp += (sample.prev[r * kLimbs + b] >> lane) & 1u;
                }
                key = (std::uint64_t{hn} << hw_shift) | hp;
              } else {
                std::uint64_t obs = 0;
                std::size_t bit = 0;
                for (std::uint32_t r : sp.rows)
                  obs |= ((sample.now[r * kLimbs + b] >> lane) & 1u) << bit++;
                if (transitions)
                  for (std::uint32_t r : sp.rows)
                    obs |= ((sample.prev[r * kLimbs + b] >> lane) & 1u)
                           << bit++;
                key = obs;
              }
              table.add(key, sample.group);
            }
          }
        }
      }
      debug_charge(g_acc_path_nanos.scalar, t0,
                   std::chrono::steady_clock::now());
      return;
    }

    if (!prog.trie.empty()) {
      // Narrow exact sets (the bulk of a first-order campaign): the whole
      // 2^bits histogram of a sample comes from conjunction popcounts —
      // level[key] has lane L set iff lane L observed `key` — with no
      // transpose and no per-lane work at all. The trie program shares
      // expansion ops across every set with a common observation prefix;
      // sibling subtrees reuse a level in place after it is consumed.
      // Level d of the combo stack lives at offset 2^d - 1 (depth is
      // capped at kPopcountBits, so the stack is 2^(kPopcountBits+1)-1
      // words).
      const auto t0 = std::chrono::steady_clock::now();
      std::array<Word, (std::size_t{2} << kPopcountBits) - 1> levels;
      for (const Sample& sample : buf) {
        levels[0] = Word::ones();
        const bool full = sample.active == kLimbs;
        for (const accplan::TrieOp& op : prog.trie) {
          if (!op.emit) {
            const Word w = code_word(sample, op.arg);
            const std::size_t cnt = std::size_t{1} << op.depth;
            Word* const src = levels.data() + (cnt - 1);
            Word* const dst = levels.data() + (2 * cnt - 1);
            for (std::size_t c = 0; c < cnt; ++c) {
              const Word m = src[c];
              dst[c] = m & ~w;
              dst[cnt + c] = m & w;
            }
          } else {
            std::uint64_t* const counts =
                ctx.tables[op.arg].data() +
                static_cast<std::size_t>(sample.group);
            const std::size_t cnt = std::size_t{1} << op.depth;
            const Word* const lvl = levels.data() + (cnt - 1);
            if (full) {
              for (std::size_t key = 0; key < cnt; ++key)
                counts[2 * key] +=
                    static_cast<std::uint64_t>(lvl[key].popcount());
            } else {
              for (std::size_t key = 0; key < cnt; ++key)
                counts[2 * key] += static_cast<std::uint64_t>(
                    lvl[key].popcount(sample.active));
            }
          }
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      ctx.histogram_seconds += std::chrono::duration<double>(t1 - t0).count();
      debug_charge(g_acc_path_nanos.narrow, t0, t1);
    }

    if (!prog.compacted.empty()) {
      // Hamming-weight pairs histogrammed in plane space: the vertical
      // counter's bit-planes are the binary digits of the per-lane
      // counts, so conjunction-expanding pn (+ pp) planes yields one
      // lane-mask per (hn, hp) value and a popcount replaces 64 table
      // updates.
      const auto t0 = std::chrono::steady_clock::now();
      common::WideVerticalCounter<kLimbs> vc_now, vc_prev;
      std::vector<Word> hw_combos;
      for (std::uint32_t l : prog.compacted) {
        const accplan::SetAccPlan& sp = plan.sets[l];
        std::uint64_t* const counts = ctx.tables[l].data();
        const unsigned hw_shift = hp_bits(sp.rows.size(), transitions);
        for (const Sample& sample : buf) {
          vc_now.clear();
          for (std::uint32_t r : sp.rows) vc_now.add(code_word(sample, r));
          const unsigned pn = vc_now.planes_in_use();
          unsigned pp = 0;
          if (transitions) {
            vc_prev.clear();
            for (std::uint32_t r : sp.rows)
              vc_prev.add(
                  code_word(sample, r + static_cast<std::uint32_t>(num_rows)));
            pp = vc_prev.planes_in_use();
          }
          const std::size_t n_hw = std::size_t{1} << (pn + pp);
          if (hw_combos.size() < n_hw) hw_combos.resize(n_hw);
          hw_combos[0] = Word::ones();
          std::size_t n = 1;
          for (unsigned j = 0; j < pn; ++j) {
            const Word w = vc_now.plane(j);
            for (std::size_t c = 0; c < n; ++c) {
              const Word m = hw_combos[c];
              hw_combos[c + n] = m & w;
              hw_combos[c] = m & ~w;
            }
            n <<= 1;
          }
          for (unsigned j = 0; j < pp; ++j) {
            const Word w = vc_prev.plane(j);
            for (std::size_t c = 0; c < n; ++c) {
              const Word m = hw_combos[c];
              hw_combos[c + n] = m & w;
              hw_combos[c] = m & ~w;
            }
            n <<= 1;
          }
          const std::uint64_t hn_mask = (std::uint64_t{1} << pn) - 1;
          const bool full = sample.active == kLimbs;
          for (std::size_t c = 0; c < n; ++c) {
            const unsigned cnt = full ? hw_combos[c].popcount()
                                      : hw_combos[c].popcount(sample.active);
            if (!cnt) continue;
            const std::uint64_t key = ((c & hn_mask) << hw_shift) | (c >> pn);
            counts[2 * key + static_cast<std::size_t>(sample.group)] += cnt;
          }
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      ctx.histogram_seconds += std::chrono::duration<double>(t1 - t0).count();
      debug_charge(g_acc_path_nanos.compacted, t0, t1);
    }

    if (!prog.packed.empty()) {
      // Wider exact sets: the shard's transpose blocks are gathered and
      // transposed once per (sample, limb) and shared by every packed set
      // touching them; each set then pext-gathers its key bits from the
      // transposed columns (block word `lane` holds bit i = block-row i's
      // lane-L value, and masks select rows in ascending key-bit order).
      // Samples are staged in tiles so the block scratch stays in cache,
      // and each sub-pass (gather / transpose / key extraction) runs as a
      // separately-timed bulk loop over the tile. The key multiset per
      // (sample, limb) equals the 64-lane reference's, so the counts stay
      // bit-identical.
      const auto packed_start = std::chrono::steady_clock::now();
      const std::size_t nblocks = prog.blocks.size();
      const std::size_t words_per_sample = nblocks * 64 * kLimbs;
      const std::size_t tile_samples = std::max<std::size_t>(
          1, (std::size_t{256} << 10) / (words_per_sample * 8));
      if (ctx.block_scratch.size() < tile_samples * words_per_sample)
        ctx.block_scratch.resize(tile_samples * words_per_sample);
      std::uint64_t* const scratch = ctx.block_scratch.data();
      for (std::size_t s0 = 0; s0 < buf.size(); s0 += tile_samples) {
        const std::size_t sn = std::min(tile_samples, buf.size() - s0);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t s = 0; s < sn; ++s) {
          const Sample& sample = buf[s0 + s];
          for (unsigned b = 0; b < sample.active; ++b) {
            std::uint64_t* dst =
                scratch + (s * kLimbs + b) * nblocks * 64;
            for (std::size_t blk = 0; blk < nblocks; ++blk, dst += 64) {
              const std::vector<std::uint32_t>& rows = prog.blocks[blk];
              for (std::size_t i = 0; i < rows.size(); ++i)
                dst[i] = code_limb(sample, rows[i], b);
              std::fill(dst + rows.size(), dst + 64, std::uint64_t{0});
            }
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        ctx.extract_seconds += std::chrono::duration<double>(t1 - t0).count();
        for (std::size_t s = 0; s < sn; ++s) {
          const unsigned active = buf[s0 + s].active;
          for (unsigned b = 0; b < active; ++b) {
            std::uint64_t* dst = scratch + (s * kLimbs + b) * nblocks * 64;
            for (std::size_t blk = 0; blk < nblocks; ++blk, dst += 64)
              common::transpose64(dst);
          }
        }
        const auto t2 = std::chrono::steady_clock::now();
        ctx.transpose_seconds += std::chrono::duration<double>(t2 - t1).count();
        for (std::uint32_t l : prog.packed) {
          const accplan::SetAccPlan& sp = plan.sets[l];
          std::uint64_t* const counts = ctx.tables[l].data();
          for (std::size_t s = 0; s < sn; ++s) {
            const Sample& sample = buf[s0 + s];
            const auto group = static_cast<std::size_t>(sample.group);
            for (unsigned b = 0; b < sample.active; ++b) {
              const std::uint64_t* const base =
                  scratch + (s * kLimbs + b) * nblocks * 64;
              for (unsigned lane = 0; lane < 64; ++lane) {
                std::uint64_t key = 0;
                for (const accplan::PackedGather& g : sp.gathers)
                  key |= common::extract_bits64(
                             base[std::size_t{g.block} * 64 + lane], g.mask)
                         << g.shift;
                ++counts[2 * key + group];
              }
            }
          }
        }
        const auto t3 = std::chrono::steady_clock::now();
        ctx.histogram_seconds += std::chrono::duration<double>(t3 - t2).count();
      }
      debug_charge(g_acc_path_nanos.packed, packed_start,
                   std::chrono::steady_clock::now());
    }
  };
  auto accumulate = [&](const accplan::AccumulationPlan& plan,
                        const std::vector<Sample>& buf, std::size_t shard_idx,
                        WorkerCtx& ctx) {
    switch (limbs) {
      case 1:
        accumulate_impl.template operator()<1>(plan, buf, shard_idx, ctx);
        break;
      case 4:
        accumulate_impl.template operator()<4>(plan, buf, shard_idx, ctx);
        break;
      case 8:
        accumulate_impl.template operator()<8>(plan, buf, shard_idx, ctx);
        break;
      default:
        SCA_ASSERT(false, "campaign: unsupported limb count");
    }
  };

  // --- main loop ------------------------------------------------------------------
  const std::size_t observations_per_run = 64 * samples_per_run;
  const std::size_t runs_per_group = common::ceil_div(
      std::max<std::size_t>(options.simulations, 64), observations_per_run);

  // The run budget is sharded into fixed chunks; chunk c simulates the
  // 64-lane runs [c * runs_per_chunk, ...), whose randomness the counter
  // PRG addresses by absolute run. The chunk grid depends only on the
  // workload — never on the thread count or the lane width — so every
  // thread count and every lane width produces bit-identical statistics
  // (wide execution blocks align to the chunk start; a chunk tail shorter
  // than the lane width just runs with inactive limbs). ~256 chunks
  // load-balance well beyond any sane thread count. Campaigns of at least
  // 256 runs round the chunk size up to the widest limb count, so the
  // steady-state execution block is full at every lane width; tiny
  // campaigns keep the fine seed grid instead — stage/early-stop
  // granularity matters more than SIMD width there.
  const std::size_t runs_per_chunk = [&] {
    const std::size_t fine = common::ceil_div(runs_per_group, std::size_t{256});
    if (runs_per_group < 256) return fine;
    return common::ceil_div(fine, std::size_t{kMaxLimbs}) * kMaxLimbs;
  }();
  const std::size_t num_chunks =
      common::ceil_div(runs_per_group, runs_per_chunk);
  const std::size_t cycles_per_run = 2 * cycles_per_group;

  // Probe-set shards for the 2-D (chunk x shard) schedule: when the chunk
  // grid alone cannot feed every thread (tiny campaigns), the live sets
  // split into shards and each (chunk, shard) cell re-simulates its chunk
  // while accumulating only its shard's sets. Simulation is cheap next to
  // accumulation on probe-heavy workloads, and shard membership is part of
  // the deterministic plan, so the statistics stay bit-identical. The
  // scalar oracle keeps the classic 1-D schedule.
  const unsigned shard_target =
      (bitsliced && threads > 1 && num_chunks < threads)
          ? static_cast<unsigned>(
                common::ceil_div(std::size_t{threads}, num_chunks))
          : 1;

  // Stage boundaries over the chunk grid. A stage is a contiguous chunk
  // range; because every chunk's randomness is addressed by absolute run
  // and the master accumulators are integer counts, running the ranges back
  // to back (in one process or across a checkpoint/resume) is bit-identical
  // to one uninterrupted pass over [0, num_chunks).
  std::vector<std::size_t> stage_bounds;
  {
    std::vector<double> fractions = options.stage_schedule;
    if (fractions.empty()) {
      const unsigned s = resolve_stages(options.stages);
      for (unsigned i = 1; i <= s; ++i)
        fractions.push_back(static_cast<double>(i) / s);
    }
    require(std::abs(fractions.back() - 1.0) < 1e-9,
            "campaign: stage schedule must end at 1.0");
    stage_bounds.push_back(0);
    double prev = 0.0;
    for (double f : fractions) {
      require(f > prev && f <= 1.0 + 1e-9,
              "campaign: stage fractions must ascend within (0, 1]");
      prev = f;
      const std::size_t b = std::min<std::size_t>(
          num_chunks, static_cast<std::size_t>(std::llround(
                          f * static_cast<double>(num_chunks))));
      if (b > stage_bounds.back()) stage_bounds.push_back(b);
    }
    if (stage_bounds.back() != num_chunks) stage_bounds.push_back(num_chunks);
  }
  const std::size_t stages_total = stage_bounds.size() - 1;

  // Split the probe sets into batches whose count tables fit the memory
  // budget; the simulation re-runs per batch (it is cheap next to table
  // accumulation, and the chunk seeds make passes identical). Each worker
  // holds its own tables, so the per-batch share of the budget shrinks with
  // the thread count. The estimate charges 64 bytes per expected bin
  // (compacted sets: 1024 bins), and an exact set at least its master and
  // one worker table over the whole key space.
  constexpr std::size_t kBytesPerBin = 64;
  const std::size_t samples_total = 2 * runs_per_group * observations_per_run;
  const std::size_t batch_budget = std::max<std::size_t>(
      options.table_memory_budget / (std::size_t{threads} + 1), kBytesPerBin);
  std::vector<std::pair<std::size_t, std::size_t>> batch_ranges;
  {
    std::size_t begin = 0;
    while (begin < prepared.size()) {
      std::size_t end = begin;
      std::size_t budget_used = 0;
      while (end < prepared.size()) {
        const PreparedSet& set = prepared[end];
        const std::size_t est_bins = std::min(
            set.compacted ? std::size_t{1024}
                          : std::size_t{1} << set.observation_bits,
            samples_total);
        std::size_t bytes = est_bins * kBytesPerBin;
        if (!set.compacted)
          bytes = std::max<std::size_t>(
              bytes, std::size_t{32} << set.observation_bits);
        if (end > begin && budget_used + bytes > batch_budget) break;
        budget_used += bytes;
        ++end;
      }
      batch_ranges.emplace_back(begin, end);
      begin = end;
    }
  }

  // Configuration fingerprint: everything the snapshot's validity depends
  // on — seed, budget, chunk/stage/batch grids, sampling parameters, and
  // the prepared probe sets. Thread count, lane width, kernel choice, and
  // accumulation regime are deliberately excluded (all are bit-identical
  // by contract, so resuming across them is sound); the batch grid covers
  // the one way threads could matter, since the memory budget splits per
  // worker. The accumulation plan (hosting, sharding, CSE structure) is
  // also excluded by design: it is a pure function of the prepared sets
  // and the options, snapshots always carry fully materialized per-set
  // tables, and hosted masters recompute their marginal from scratch after
  // every stage — so a snapshot written by the fused pipeline resumes
  // under the scalar one and vice versa (asserted by tests).
  std::uint64_t fingerprint = 0;
  {
    common::Fnv1a fp;
    fp.feed(options.seed)
        .feed(static_cast<std::uint64_t>(runs_per_group))
        .feed(static_cast<std::uint64_t>(runs_per_chunk))
        .feed(static_cast<std::uint64_t>(num_chunks))
        .feed(static_cast<std::uint64_t>(samples_per_run))
        .feed(static_cast<std::uint64_t>(options.sample_interval))
        .feed(static_cast<std::uint64_t>(options.warmup_cycles))
        .feed(static_cast<std::uint64_t>(options.order))
        .feed(static_cast<std::uint64_t>(options.model))
        .feed(static_cast<std::uint64_t>(options.statistic))
        .feed(static_cast<std::uint64_t>(options.null_calibration ? 1 : 0))
        .feed(options.threshold);
    for (std::size_t b : stage_bounds)
      fp.feed(static_cast<std::uint64_t>(b));
    for (const auto& [bb, be] : batch_ranges)
      fp.feed(static_cast<std::uint64_t>(bb))
          .feed(static_cast<std::uint64_t>(be));
    for (const auto& p : prepared)
      fp.feed(p.name).feed(static_cast<std::uint64_t>(p.observation_bits));
    fingerprint = fp.value();
  }

  std::vector<ProbeSetResult> finished;
  finished.reserve(prepared.size());
  std::size_t total_cycles = 0;
  std::size_t simulations_done = 0;
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double merge_seconds = 0.0;
  // Accumulation sub-phases (not checkpointed — the snapshot format is
  // unchanged, so resumed campaigns restart these at zero).
  double extract_seconds = 0.0;
  double transpose_seconds = 0.0;
  double histogram_seconds = 0.0;

  // Resume: load a matching snapshot, restore the finalized results and the
  // in-progress batch's master accumulators, and continue from its cursor.
  std::size_t resume_batch = 0;
  std::size_t resume_stages = 0;
  std::size_t streak = 0;
  bool early_stopped = false;
  bool complete = false;
  bool resumed = false;
  if (options.resume && !options.checkpoint_path.empty()) {
    const bool exists =
        std::ifstream(options.checkpoint_path, std::ios::binary).good();
    if (exists) {
      CampaignSnapshot snap = load_checkpoint(options.checkpoint_path);
      require(snap.fingerprint == fingerprint,
              "campaign: checkpoint does not match this campaign "
              "configuration (different netlist, seed, budget, or schedule)");
      require(snap.num_chunks == num_chunks &&
                  snap.batches_total == batch_ranges.size() &&
                  snap.batch_index <= batch_ranges.size(),
              "campaign: checkpoint cursor out of range");
      resume_batch = snap.batch_index;
      resume_stages = snap.stages_done;
      streak = snap.streak;
      early_stopped = snap.early_stopped;
      complete = snap.complete;
      total_cycles = snap.total_cycles;
      simulations_done = snap.simulations_done;
      simulate_seconds = snap.simulate_seconds;
      accumulate_seconds = snap.accumulate_seconds;
      merge_seconds = snap.merge_seconds;
      finished = std::move(snap.finished);
      require(complete || resume_batch < batch_ranges.size(),
              "campaign: incomplete checkpoint past the last batch");
      require(complete || resume_stages < stages_total,
              "campaign: checkpoint stage cursor out of range");
      require(finished.size() ==
                  (resume_batch < batch_ranges.size()
                       ? batch_ranges[resume_batch].first
                       : prepared.size()),
              "campaign: checkpoint finished-set count mismatch");
      if (!complete && resume_stages > 0) {
        const auto [bb, be] = batch_ranges[resume_batch];
        require(snap.sets.size() == be - bb,
                "campaign: checkpoint accumulator count mismatch");
        for (std::size_t i = 0; i < snap.sets.size(); ++i) {
          PreparedSet& p = prepared[bb + i];
          require(snap.sets[i].key_bits() == p.table.key_bits(),
                  "campaign: checkpoint table key space mismatch");
          p.table = std::move(snap.sets[i]);
        }
      }
      resumed = true;
    }
  }
  std::size_t table_batches = resume_batch;

  // One simulation pass over the chunks [chunk_begin, chunk_end) — one
  // evaluation stage — accumulating only the probe sets
  // [set_begin, set_end) under the batch's compiled plan, scheduled over
  // the worker pool as (chunk x shard) cells. Each worker accumulates every
  // cell it runs into its own tables and adds them to the master tables
  // once, when it drains. Integer adds commute, so neither the cell order
  // nor the worker count can change a count, and the concatenation of
  // stage passes stays bit-identical to one full pass.
  auto simulate_into = [&](const accplan::AccumulationPlan& plan,
                           const std::vector<SignalId>& row_signals,
                           std::size_t set_begin, std::size_t set_end,
                           std::size_t chunk_begin, std::size_t chunk_end) {
    const std::size_t shards = plan.shards.size();
    const std::size_t local_count = set_end - set_begin;
    const std::size_t cells = (chunk_end - chunk_begin) * shards;
    // Hosted sets get no accumulator at all — their counts are
    // marginalized from their host after the stage.
    auto live = [&](std::size_t l) {
      return plan.sets[l].regime != accplan::AccRegime::kHosted;
    };
    std::mutex merge_mutex;

    common::parallel_for_stateful(
        cells, threads,
        [&] {
          WorkerCtx ctx(schedule);
          ctx.tables.resize(local_count);
          for (std::size_t l = 0; l < local_count; ++l)
            if (live(l))
              ctx.tables[l] = stats::FlatCountTable(
                  prepared[set_begin + l].table.key_bits());
          return ctx;
        },
        [&](WorkerCtx& ctx, std::size_t cell) {
          const std::size_t chunk = chunk_begin + cell / shards;
          const std::size_t shard = cell % shards;
          const CounterPrg prg(options.seed);

          const std::size_t run_begin = chunk * runs_per_chunk;
          const std::size_t run_end =
              std::min(runs_per_group, run_begin + runs_per_chunk);
          std::vector<Sample> buf;
          buf.reserve(2 * samples_per_run);
          // One iteration simulates limbs() 64-lane runs at once; the last
          // wide run of the chunk may carry a tail (active < limbs), whose
          // inactive limbs are fed nothing and accumulated never.
          for (std::size_t run = run_begin; run < run_end; run += limbs) {
            const unsigned active = static_cast<unsigned>(
                std::min<std::size_t>(limbs, run_end - run));
            buf.clear();
            const auto sim_start = std::chrono::steady_clock::now();
            for (int group = 0; group < 2; ++group) {
              sim::Simulator& simulator = ctx.simulator;
              simulator.reset();
              std::size_t cycle_in_group = 0;
              // The previous-cycle snapshot only feeds transition models;
              // skipping it elsewhere saves a full row copy per cycle.
              for (std::size_t c = 0; c < options.warmup_cycles; ++c) {
                feed_cycle(simulator, prg, run, active, group,
                           cycle_in_group++);
                simulator.settle();
                if (transitions)
                  snapshot_rows(simulator, row_signals, ctx.prev_snapshot);
                simulator.clock();
              }
              for (std::size_t s = 0; s < samples_per_run; ++s) {
                for (std::size_t c = 0; c < options.sample_interval; ++c) {
                  feed_cycle(simulator, prg, run, active, group,
                             cycle_in_group++);
                  simulator.settle();
                  if (c + 1 == options.sample_interval) {
                    Sample sample;
                    sample.group = group;
                    sample.active = active;
                    snapshot_rows(simulator, row_signals, sample.now);
                    if (transitions) sample.prev = ctx.prev_snapshot;
                    buf.push_back(std::move(sample));
                  }
                  if (transitions)
                    snapshot_rows(simulator, row_signals, ctx.prev_snapshot);
                  simulator.clock();
                }
              }
            }
            const auto acc_start = std::chrono::steady_clock::now();
            ctx.simulate_seconds +=
                std::chrono::duration<double>(acc_start - sim_start).count();
            accumulate(plan, buf, shard, ctx);
            ctx.accumulate_seconds += seconds_since(acc_start);
          }
        },
        [&](WorkerCtx& ctx) {
          // Worker drained: add its tables and phase timers to the master
          // under the merge lock, in whatever order the workers finish.
          std::lock_guard<std::mutex> lock(merge_mutex);
          simulate_seconds += ctx.simulate_seconds;
          accumulate_seconds += ctx.accumulate_seconds;
          extract_seconds += ctx.extract_seconds;
          transpose_seconds += ctx.transpose_seconds;
          histogram_seconds += ctx.histogram_seconds;
          const auto merge_start = std::chrono::steady_clock::now();
          for (std::size_t l = 0; l < local_count; ++l)
            if (live(l)) prepared[set_begin + l].table.merge(ctx.tables[l]);
          merge_seconds += seconds_since(merge_start);
        });
    const std::size_t run_begin = chunk_begin * runs_per_chunk;
    const std::size_t run_end =
        std::min(runs_per_group, chunk_end * runs_per_chunk);
    // Sharded cells re-simulate their chunk once per shard (counted as
    // cycles actually spent); the observation count is per unique run.
    total_cycles += (run_end - run_begin) * cycles_per_run * shards;
    simulations_done += (run_end - run_begin) * observations_per_run;
  };

  const double threshold = ttest ? stats::kTvlaThreshold : options.threshold;
  const bool early_stop_enabled = options.early_stop_stages > 0;
  // Interim statistics cost a g_test per set per stage; skip them when
  // nobody observes them (no stage callback, no early stopping).
  const bool want_interim = early_stop_enabled || bool(options.on_stage);
  const bool checkpointing = !options.checkpoint_path.empty();

  auto save_snapshot = [&](std::size_t batch_index, std::size_t stages_done,
                           bool is_complete) {
    CampaignSnapshot snap;
    snap.fingerprint = fingerprint;
    snap.num_chunks = num_chunks;
    snap.batches_total = batch_ranges.size();
    snap.batch_index = batch_index;
    snap.stages_done = stages_done;
    snap.streak = streak;
    snap.early_stopped = early_stopped;
    snap.complete = is_complete;
    snap.total_cycles = total_cycles;
    snap.simulations_done = simulations_done;
    snap.simulate_seconds = simulate_seconds;
    snap.accumulate_seconds = accumulate_seconds;
    snap.merge_seconds = merge_seconds;
    snap.finished = finished;
    if (stages_done > 0 && batch_index < batch_ranges.size()) {
      const auto [bb, be] = batch_ranges[batch_index];
      snap.sets.reserve(be - bb);
      for (std::size_t si = bb; si < be; ++si)
        snap.sets.push_back(prepared[si].table);
    }
    save_checkpoint(options.checkpoint_path, snap);
  };

  // Severity over the batches finalized so far (including any restored from
  // a snapshot) — the baseline every stage's interim statistics extend.
  double finished_max = 0.0;
  std::size_t finished_leaks = 0;
  std::string finished_worst;
  for (const ProbeSetResult& r : finished) {
    if (r.severity > finished_max) {
      finished_max = r.severity;
      finished_worst = r.name;
    }
    if (r.severity > threshold) ++finished_leaks;
  }

  std::size_t stages_completed = resume_batch * stages_total + resume_stages;
  unsigned stages_run_here = 0;
  bool interrupted = false;
  std::size_t hosted_total = 0;
  std::size_t max_set_shards = 1;

  auto emit_stage = [&](std::size_t stage, std::size_t batch, double cur_max,
                        const std::string& worst, std::size_t leaks,
                        double stage_secs, bool saved) {
    if (!options.on_stage) return;
    StageReport rep;
    rep.stage = stage;
    rep.stages_total = stages_total;
    rep.batch = batch + 1;
    rep.batches_total = batch_ranges.size();
    const std::size_t runs_done =
        std::min(runs_per_group, stage_bounds[stage] * runs_per_chunk);
    const std::size_t runs_prev =
        std::min(runs_per_group, stage_bounds[stage - 1] * runs_per_chunk);
    rep.simulations_done = runs_done * observations_per_run;
    rep.simulations_total = runs_per_group * observations_per_run;
    rep.max_minus_log10_p = cur_max;
    rep.worst_set = worst;
    rep.leaking_sets = leaks;
    rep.pass_so_far = leaks == 0;
    rep.stage_seconds = stage_secs;
    rep.sims_per_second =
        stage_secs > 0.0
            ? 2.0 * static_cast<double>((runs_done - runs_prev) *
                                        observations_per_run) /
                  stage_secs
            : 0.0;
    rep.simulate_seconds = simulate_seconds;
    rep.accumulate_seconds = accumulate_seconds;
    rep.merge_seconds = merge_seconds;
    rep.extract_seconds = extract_seconds;
    rep.transpose_seconds = transpose_seconds;
    rep.histogram_seconds = histogram_seconds;
    rep.aliased_probe_sets = aliased_probe_sets;
    rep.early_stopped = early_stopped;
    if (saved) rep.checkpoint_path = options.checkpoint_path;
    options.on_stage(rep);
  };

  for (std::size_t b = resume_batch;
       b < batch_ranges.size() && !complete && !interrupted && !early_stopped;
       ++b) {
    const auto [set_begin, set_end] = batch_ranges[b];

    // Compile the batch's accumulation plan: regimes, subset hosting,
    // shared-trie / shared-block CSE, and the shard partition. The plan is
    // a pure function of the prepared sets and the options, so it needs no
    // fingerprint coverage and no snapshot state.
    std::vector<accplan::PlanSetInput> plan_inputs;
    plan_inputs.reserve(set_end - set_begin);
    for (std::size_t si = set_begin; si < set_end; ++si)
      plan_inputs.push_back({&prepared[si].dense,
                             prepared[si].observation_bits,
                             prepared[si].compacted});
    accplan::PlanOptions plan_options;
    plan_options.transitions = transitions;
    plan_options.ttest = ttest;
    plan_options.fuse = bitsliced;
    plan_options.narrow_bits = kPopcountBits;
    plan_options.shards = shard_target;
    const accplan::AccumulationPlan plan =
        accplan::compile_accumulation_plan(plan_inputs, plan_options);
    hosted_total += plan.hosted_sets;
    max_set_shards = std::max(max_set_shards, plan.shards.size());
    std::vector<SignalId> row_signals;
    row_signals.reserve(plan.rows.size());
    for (std::size_t r : plan.rows) row_signals.push_back(stable_points[r]);

    // Hosted sets' master tables are exact integer marginals of their
    // host's — recomputed from scratch after every stage, so interim
    // statistics, snapshots, and finalization all see tables
    // bit-identical to per-set accumulation (and a snapshot resumes under
    // any plan layout: the marginal only ever derives from the host's
    // cumulative master).
    auto materialize_hosted = [&] {
      if (ttest || plan.finalize_order.empty()) return;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint32_t idx : plan.finalize_order) {
        const accplan::SetAccPlan& sp = plan.sets[idx];
        stats::FlatCountTable& dst = prepared[set_begin + idx].table;
        dst.clear();
        dst.add_marginalized(prepared[set_begin + sp.host].table,
                             sp.host_mask);
      }
      merge_seconds += seconds_since(t0);
    };

    const std::size_t first_stage = b == resume_batch ? resume_stages : 0;
    std::size_t final_stage = stages_total;
    double last_stage_secs = 0.0;
    for (std::size_t s = first_stage; s < stages_total; ++s) {
      const auto stage_start = std::chrono::steady_clock::now();
      simulate_into(plan, row_signals, set_begin, set_end, stage_bounds[s],
                    stage_bounds[s + 1]);
      materialize_hosted();
      const double stage_secs = seconds_since(stage_start);
      last_stage_secs = stage_secs;
      ++stages_completed;
      ++stages_run_here;

      // Interim verdict-so-far over the current batch's master
      // accumulators, on top of the finalized-batch baseline.
      double cur_max = finished_max;
      std::string worst = finished_worst;
      std::size_t leaks = finished_leaks;
      if (want_interim) {
        for (std::size_t si = set_begin; si < set_end; ++si) {
          const double sev =
              ttest ? std::abs(hw_t_test(prepared[si].table).t)
                    : prepared[si].table.g_test().minus_log10_p;
          if (sev > threshold) ++leaks;
          if (sev > cur_max) {
            cur_max = sev;
            worst = prepared[si].name;
          }
        }
        if (early_stop_enabled) {
          if (cur_max > threshold + options.early_stop_margin)
            ++streak;
          else
            streak = 0;
          if (streak >= options.early_stop_stages) early_stopped = true;
        }
      }

      if (s + 1 == stages_total || early_stopped) {
        // Batch (or campaign) done: finalize below, then snapshot/report
        // with exact statistics.
        final_stage = s + 1;
        break;
      }
      if (checkpointing) save_snapshot(b, s + 1, /*is_complete=*/false);
      emit_stage(s + 1, b, cur_max, worst, leaks, stage_secs, checkpointing);
      if (options.stop_after_stage &&
          stages_run_here >= options.stop_after_stage) {
        // Simulated kill: leave the snapshot on disk, return a partial
        // result flagged `interrupted`.
        interrupted = true;
        break;
      }
    }
    if (interrupted) break;

    // Finalize the batch — under early stopping, from its partial counts —
    // and release its table memory.
    for (std::size_t i = set_begin; i < set_end; ++i) {
      ProbeSetResult r;
      r.name = std::move(prepared[i].name);
      r.representatives = std::move(prepared[i].representatives);
      r.observation_bits = prepared[i].observation_bits;
      r.compacted = prepared[i].compacted;
      r.aliases = std::move(prepared[i].aliases);
      if (ttest) {
        r.t = hw_t_test(prepared[i].table);
        r.severity = std::abs(r.t.t);
      } else {
        r.g = prepared[i].table.g_test();
        r.severity = r.g.minus_log10_p;
      }
      prepared[i].table = stats::FlatCountTable();
      r.minus_log10_p = r.severity;
      if (r.severity > finished_max) {
        finished_max = r.severity;
        finished_worst = r.name;
      }
      if (r.severity > threshold) ++finished_leaks;
      finished.push_back(std::move(r));
    }
    ++table_batches;

    const bool campaign_over =
        early_stopped || b + 1 == batch_ranges.size();
    if (checkpointing) save_snapshot(b + 1, 0, campaign_over);
    emit_stage(final_stage, b, finished_max, finished_worst, finished_leaks,
               last_stage_secs, checkpointing);
    if (!campaign_over && options.stop_after_stage &&
        stages_run_here >= options.stop_after_stage)
      interrupted = true;
  }

  // --- statistics -------------------------------------------------------------------
  CampaignResult result;
  result.model = options.model;
  result.order = options.order;
  result.statistic = options.statistic;
  result.total_sets = prepared.size();
  result.dropped_sets = dropped;
  result.simulations_per_group = runs_per_group * observations_per_run;
  result.threads_used = threads;
  result.lanes_used = lanes;
  result.total_cycles = total_cycles;
  result.table_batches = table_batches;
  result.simulate_seconds = simulate_seconds;
  result.accumulate_seconds = accumulate_seconds;
  result.merge_seconds = merge_seconds;
  result.extract_seconds = extract_seconds;
  result.transpose_seconds = transpose_seconds;
  result.histogram_seconds = histogram_seconds;
  result.aliased_probe_sets = aliased_probe_sets;
  result.hosted_sets = hosted_total;
  result.set_shards = max_set_shards;
  result.stages_total = stages_total;
  result.stages_completed = stages_completed;
  result.early_stopped = early_stopped;
  result.interrupted = interrupted;
  result.resumed = resumed;
  result.simulations_done = simulations_done;
  result.unevaluated_sets = prepared.size() - finished.size();
  for (ProbeSetResult& r : finished) {
    r.leaking = r.severity > threshold;
    if (r.leaking) {
      result.pass = false;
      ++result.leaking_sets;
    }
    result.max_minus_log10_p = std::max(result.max_minus_log10_p, r.minus_log10_p);
    result.results.push_back(std::move(r));
  }
  std::sort(result.results.begin(), result.results.end(),
            [](const ProbeSetResult& a, const ProbeSetResult& b) {
              return a.minus_log10_p > b.minus_log10_p;
            });
  report_acc_debug();
  return result;
}

}  // namespace sca::eval
