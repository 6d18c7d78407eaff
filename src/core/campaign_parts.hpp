// Internal building blocks of run_fixed_vs_random: probe-set preparation,
// the fresh-randomness input feed, and the sample producer.
// run_fixed_vs_random (campaign.cpp) runs them under its chunk grid and
// compiled accumulation plans; tests run the same pieces under a one-thread
// scalar reference accumulator (tests/reference_campaign.hpp). Not part of
// the public campaign API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"
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
  void feed_cycle(sim::Simulator& simulator, const common::CounterPrg& prg,
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

// Simulates one wide run — the 64-lane runs [run, run + active) — for both
// groups on `simulator` and overwrites `out` with its 2 * samples_per_run
// samples of `rows`, fixed group first. The previous-cycle rows are only
// snapshotted under transitions; a sample in a group's first cycle (no
// warmup) sees the all-zero reset state there.
void produce_samples(sim::Simulator& simulator, const InputFeeder& feeder,
                     const common::CounterPrg& prg, std::size_t run,
                     unsigned active, bool transitions,
                     const std::vector<netlist::SignalId>& rows,
                     std::vector<Sample>& out);

}  // namespace sca::eval::detail
