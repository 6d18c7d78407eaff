// Wide compiled-kernel property tests.
//
// The contract under test: the compiled straight-line kernel at every lane
// width (64/256/512, with dead-gate elimination on or off) is bit-identical
// to the interpreted 64-lane oracle on every gadget the paper evaluates —
// per limb, per cycle, per signal — and the campaign engine built on it
// matches the interpreted 64-lane reference campaign
// (tests/reference_campaign.hpp) bit for bit at every (lane width, thread
// count) combination, including across a forced checkpoint/resume that
// switches the width.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_aes.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/ir.hpp"
#include "src/netlist/slice.hpp"
#include "src/sim/simulator.hpp"
#include "tests/reference_campaign.hpp"

namespace sca {
namespace {

using gadgets::Bus;
using gadgets::RandomnessPlan;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

Netlist kronecker_netlist(const RandomnessPlan& plan) {
  Netlist nl;
  std::vector<Bus> shares;
  for (std::size_t i = 0; i < 2; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, InputRole::kShare, "b" + std::to_string(i) + "_", 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

Netlist sbox_netlist() {
  Netlist nl;
  gadgets::MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
  gadgets::build_masked_sbox(nl, options);
  return nl;
}

// Runs `cycles` cycles of the wide compiled kernel against limbs-many
// interpreted 64-lane oracle simulators fed the identical per-limb input
// words, and requires every readable signal to match in every limb at every
// cycle. With `observed` non-empty the compiled schedule dead-gate
// eliminates against that cone and only those signals are compared.
void expect_wide_matches_oracle(const Netlist& nl, unsigned lanes,
                                std::size_t cycles,
                                std::vector<SignalId> observed) {
  sim::ScheduleOptions wide_opts;
  wide_opts.lanes = lanes;
  wide_opts.compile = true;
  wide_opts.observed = observed;
  const sim::Schedule wide_schedule(nl, wide_opts);
  EXPECT_GT(wide_schedule.tape_ops(), 0u);
  EXPECT_GT(wide_schedule.levels(), 0u);
  EXPECT_LE(wide_schedule.live_gates(), wide_schedule.comb_gates());
  sim::Simulator wide(wide_schedule);

  sim::ScheduleOptions oracle_opts;
  oracle_opts.lanes = 64;
  oracle_opts.compile = false;
  const sim::Schedule oracle_schedule(nl, oracle_opts);
  const unsigned limbs = lanes / 64;
  std::vector<sim::Simulator> oracles;
  for (unsigned b = 0; b < limbs; ++b) oracles.emplace_back(oracle_schedule);

  // The comparison set: the observed cone, or every signal when fully
  // observable.
  std::vector<SignalId> compare = observed;
  if (compare.empty())
    for (SignalId id = 0; id < nl.size(); ++id) compare.push_back(id);

  common::Xoshiro256 rng(0xC0FFEE);
  std::vector<std::uint64_t> words(limbs);
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& in : nl.inputs()) {
      for (unsigned b = 0; b < limbs; ++b) words[b] = rng.next();
      wide.set_input_limbs(in.signal, words.data());
      for (unsigned b = 0; b < limbs; ++b)
        oracles[b].set_input(in.signal, words[b]);
    }
    wide.settle();
    for (unsigned b = 0; b < limbs; ++b) oracles[b].settle();

    std::size_t mismatches = 0;
    for (SignalId id : compare) {
      const std::uint64_t* v = wide.value_limbs(id);
      for (unsigned b = 0; b < limbs && mismatches < 5; ++b)
        if (v[b] != oracles[b].value(id)) {
          ++mismatches;
          ADD_FAILURE() << "lanes " << lanes << " cycle " << cycle << " limb "
                        << b << " signal " << nl.signal_name(id);
        }
    }
    ASSERT_EQ(mismatches, 0u) << "lanes " << lanes << " cycle " << cycle;

    wide.clock();
    for (unsigned b = 0; b < limbs; ++b) oracles[b].clock();
  }
}

void expect_all_widths_match(const Netlist& nl, std::size_t cycles) {
  // Fully observable (no dead-gate elimination): every signal compared.
  for (unsigned lanes : {64u, 256u, 512u})
    expect_wide_matches_oracle(nl, lanes, cycles, {});
  // Observed-cone schedules (the campaign configuration): dead logic is
  // eliminated; the surviving stable points must still match the oracle.
  const netlist::StableSupport supports(nl);
  std::vector<SignalId> observed(supports.stable_points().begin(),
                                 supports.stable_points().end());
  ASSERT_FALSE(observed.empty());
  for (unsigned lanes : {64u, 256u, 512u})
    expect_wide_matches_oracle(nl, lanes, cycles, observed);
}

TEST(Kernel, KroneckerFullFreshMatchesOracleAtAllWidths) {
  expect_all_widths_match(kronecker_netlist(RandomnessPlan::kron1_full_fresh()),
                          20);
}

TEST(Kernel, KroneckerEq6MatchesOracleAtAllWidths) {
  expect_all_widths_match(
      kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6()), 20);
}

TEST(Kernel, KroneckerEq9MatchesOracleAtAllWidths) {
  expect_all_widths_match(
      kronecker_netlist(RandomnessPlan::kron1_proposed_eq9()), 20);
}

TEST(Kernel, MaskedSboxMatchesOracleAtAllWidths) {
  expect_all_widths_match(sbox_netlist(), 20);
}

TEST(Kernel, MaskedAesSliceMatchesOracleAtAllWidths) {
  // The stitched MaskedAes128 combinational slice — the largest netlist the
  // linter and campaigns run on (state registers cut to held inputs).
  Netlist nl;
  (void)gadgets::build_masked_aes128(nl, {});
  const netlist::Slice slice = netlist::extract_slice(nl);
  ASSERT_FALSE(slice.cuts.empty());
  expect_all_widths_match(slice.nl, 20);
}

// --- campaign-level bit-identity --------------------------------------------

eval::CampaignOptions campaign_options(std::size_t sims) {
  eval::CampaignOptions opts;
  opts.model = eval::ProbeModel::kGlitch;
  opts.simulations = sims;
  opts.fixed_values[0] = 0x00;
  opts.seed = 11;
  return opts;
}

void expect_matches_reference(const eval::CampaignResult& result,
                              const std::vector<testutil::ReferenceSet>& ref,
                              const std::string& tag) {
  const std::vector<std::string> problems =
      testutil::reference_mismatches(result, ref);
  EXPECT_TRUE(problems.empty()) << tag << "\n" << testutil::joined(problems);
}

TEST(KernelCampaign, BitIdenticalAcrossKernelLanesAndThreads) {
  // The tentpole contract: the counter PRG addresses randomness by absolute
  // simulation coordinates and the chunk grid ignores width and thread
  // count, so the compiled kernel at every lane width and thread count
  // reproduces the interpreted 64-lane reference campaign exactly.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  const auto reference =
      testutil::reference_campaign(nl, campaign_options(12000));
  for (unsigned lanes : {64u, 256u, 512u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      eval::CampaignOptions opts = campaign_options(12000);
      opts.lanes = lanes;
      opts.threads = threads;
      const eval::CampaignResult r = eval::run_fixed_vs_random(nl, opts);
      EXPECT_EQ(r.lanes_used, lanes);
      EXPECT_FALSE(r.set_major);
      expect_matches_reference(r, reference,
                               std::to_string(lanes) + " lanes / " +
                                   std::to_string(threads) + " threads");
    }
  }
}

TEST(KernelCampaign, ResumeAcrossLaneWidthsAndKernels) {
  // Lane width is excluded from the snapshot fingerprint on purpose: a
  // campaign interrupted at 512 lanes on 2 threads must resume at 64 lanes
  // on 1 thread and still match the reference campaign bit for bit.
  const Netlist nl = kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  const std::string path = testing::TempDir() + "sca_ckpt_kernel_lanes.bin";
  std::remove(path.c_str());
  eval::CampaignOptions partial_opts = campaign_options(12000);
  partial_opts.lanes = 512;
  partial_opts.stages = 3;
  partial_opts.threads = 2;
  partial_opts.checkpoint_path = path;
  partial_opts.stop_after_stage = 1;
  const eval::CampaignResult partial =
      eval::run_fixed_vs_random(nl, partial_opts);
  EXPECT_TRUE(partial.interrupted);

  eval::CampaignOptions resume_opts = campaign_options(12000);
  resume_opts.lanes = 64;
  resume_opts.stages = 3;
  resume_opts.threads = 1;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  const eval::CampaignResult resumed =
      eval::run_fixed_vs_random(nl, resume_opts);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.lanes_used, 64u);
  EXPECT_FALSE(resumed.set_major);
  expect_matches_reference(
      resumed, testutil::reference_campaign(nl, campaign_options(12000)),
      "resume 512 lanes -> 64 lanes");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sca
