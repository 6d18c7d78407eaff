// Internal building blocks of run_fixed_vs_random: probe-set preparation,
// the fresh-randomness input feed, and the sample producer.
// run_fixed_vs_random (campaign.cpp) runs them under its chunk grid and
// compiled accumulation plans; tests run the same pieces under a one-thread
// scalar reference accumulator (tests/reference_campaign.hpp). Not part of
// the public campaign API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/netlist/ir.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/stats/ttest.hpp"

namespace sca::eval::detail {

// One evaluated probe set after union-dedup: the union of the constituent
// probes' observations, as dense stable indices.
struct PreparedSet {
  std::string name;
  std::vector<netlist::SignalId> representatives;
  std::vector<std::size_t> dense;  // ascending indices into stable_points
  std::size_t observation_bits = 0;
  bool compacted = false;
  std::vector<std::string> aliases;  // folded probes / probe sets
};

// The probe sets a campaign evaluates, in evaluation order.
struct PreparedSets {
  std::vector<netlist::SignalId> stable_points;  // dense index -> signal
  std::vector<PreparedSet> sets;
  std::size_t dropped = 0;  // sets beyond max_probe_sets
  std::size_t aliases = 0;  // alias names recorded over all sets
};

// Builds the probe universe, enumerates the order-d probe sets and dedupes
// them by union observation: a set whose union equals an earlier set's is
// statistically identical, so it rides along as an alias of the canonical
// set (probes folded at universe build seed the order-1 alias lists). Sets
// wider than min(max_observation_bits, FlatCountTable::kMaxDirectBits) are
// compacted to Hamming weights.
PreparedSets prepare_probe_sets(const netlist::Netlist& nl,
                                const CampaignOptions& options);

// A compacted n-signal set keys its table by its Hamming-weight pair
// (hn << w) | hp: hn the sample cycle's weight, hp the previous cycle's
// weight in the low w = bit_width(n) bits — or, without transitions, by hn
// alone (w = 0). Ascending keys are then ascending (hn, hp), the G-test's
// column order.
unsigned hp_bits(std::size_t signals, bool transitions);

// Key space of a set's count table: an exact set's observation bits, a
// compacted set's weight pair (see hp_bits), or under the t-test the
// observation's Hamming weight.
unsigned table_key_bits(const PreparedSet& p, bool transitions, bool ttest);

// Welch t-test of a set's Hamming-weight table: each group's histogram is
// folded into Welford moments in ascending-weight order, so t is a pure
// function of the integer counts.
stats::TTestResult hw_t_test(const stats::FlatCountTable& table);

// Feeds a campaign's inputs, one cycle of one wide run at a time, from the
// counter-mode PRG under common::CounterPrg's addressing convention. Slots
// are numbered statically: per secret group one secret slot and one slot
// per drawn share, then the plain random inputs, then the nonzero buses.
// Addressing draws by absolute run (not by chunk stream position) is what
// makes the statistics bit-identical for every lane width, thread count,
// chunk partition, and checkpoint/resume split.
class InputFeeder {
 public:
  InputFeeder(const netlist::Netlist& nl, const CampaignOptions& options);

  // Feeds cycle `cycle_in_group` of `group` (0 fixed, 1 random) for the
  // wide run covering the 64-lane runs [run0, run0 + active). Secrets and
  // masks are drawn directly as bit planes (word index = bit plane),
  // XOR-sharing happens in plane space, and nonzero bytes are
  // rejection-sampled in plane space: a lane whose drawn byte is zero
  // takes the next 8-word block of its stream until every lane is nonzero.
  // Under null calibration the fixed group draws fresh secrets too (from
  // the same counter coordinates), so the null hypothesis holds by
  // construction.
  //
  // `Simulator` is sim::Simulator in the engine; the tests substitute
  // their interpreted oracle through this parameter.
  template <typename Simulator>
  void feed_cycle(Simulator& simulator, const common::CounterPrg& prg,
                  std::size_t run0, unsigned active, int group,
                  std::size_t cycle_in_group) const;

  // Sampling geometry of one group's pass over a run: warmup cycles, then
  // samples_per_run samples taken every sample_interval cycles.
  std::size_t warmup_cycles = 0;
  std::size_t samples_per_run = 1;
  std::size_t sample_interval = 1;
  std::size_t cycles_per_group = 0;

 private:
  // Share inputs of one secret group as [share][bit] -> signal, its
  // fixed-group secret, and its PRG slots (share sh at shares_slot0 + sh).
  struct Group {
    std::vector<std::vector<netlist::SignalId>> share_bits;
    std::uint32_t bits = 0;
    std::uint8_t fixed_byte = 0;
    std::uint32_t secret_slot = 0;
    std::uint32_t shares_slot0 = 0;
  };
  std::vector<Group> groups_;
  std::vector<netlist::SignalId> plain_randoms_;
  std::uint32_t plain_slot0_ = 0;
  std::vector<gadgets::Bus> nonzero_buses_;
  std::uint32_t bus_slot0_ = 0;
  bool null_calibration_ = false;
};

// One buffered sample: the observation-matrix row values at the sample
// cycle and, for transition models, the cycle before. Row-major limb layout
// over the producer's rows: the limbs() lane words of row r sit at
// [r * limbs, (r + 1) * limbs), so an observation word loads as one
// SimdWord. `active` is the number of limbs carrying real runs (the last
// wide run of a chunk may be a tail; inactive limbs hold don't-care values
// and are never accumulated).
struct Sample {
  std::vector<std::uint64_t> now;
  std::vector<std::uint64_t> prev;
  int group = 0;
  unsigned active = 1;
};

template <typename Simulator>
void InputFeeder::feed_cycle(Simulator& simulator, const common::CounterPrg& prg,
                             std::size_t run0, unsigned active, int group,
                             std::size_t cycle_in_group) const {
  using common::CounterPrg;
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

// Simulates one wide run — the 64-lane runs [run, run + active) — for both
// groups on `simulator` and overwrites `out` with its 2 * samples_per_run
// samples of `rows`, fixed group first. The previous-cycle rows are only
// snapshotted under transitions; a sample in a group's first cycle (no
// warmup) sees the all-zero reset state there.
template <typename Simulator>
void produce_samples(Simulator& simulator, const InputFeeder& feeder,
                     const common::CounterPrg& prg, std::size_t run,
                     unsigned active, bool transitions,
                     const std::vector<netlist::SignalId>& rows,
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
