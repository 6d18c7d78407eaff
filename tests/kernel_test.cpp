// Wide compiled-kernel property tests.
//
// The contract under test: the sim tape at every lane width (64/256/512,
// with dead-gate elimination on or off) is bit-identical to the interpreted
// 64-lane oracle (tests/reference_simulator.hpp) on every gadget the paper
// evaluates — per limb, per cycle, per signal — including a gate list cut
// out of a netlist the way the exact verifier and the gadget check build
// theirs; and the campaign engine built on it matches the reference
// campaign (tests/reference_campaign.hpp) bit for bit at every (lane width,
// thread count) combination, including across a forced checkpoint/resume
// that switches the width.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/names.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/masked_aes.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/ir.hpp"
#include "src/netlist/slice.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/tape.hpp"
#include "tests/reference_campaign.hpp"
#include "tests/reference_simulator.hpp"
#include "tests/test_util.hpp"

namespace sca {
namespace {

using gadgets::RandomnessPlan;
using netlist::Netlist;
using netlist::SignalId;
using testutil::kronecker_netlist;

Netlist sbox_netlist() {
  Netlist nl;
  gadgets::MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
  gadgets::build_masked_sbox(nl, options);
  return nl;
}

// Runs `cycles` cycles of the wide kernel against limbs-many interpreted
// 64-lane oracle simulators fed the identical per-limb input words, and
// requires every readable signal to match in every limb at every cycle.
// With `observed` non-empty the schedule dead-gate eliminates against that
// cone and only those signals are compared.
void expect_wide_matches_oracle(const Netlist& nl, unsigned lanes,
                                std::size_t cycles,
                                std::vector<SignalId> observed) {
  sim::ScheduleOptions wide_opts;
  wide_opts.lanes = lanes;
  wide_opts.observed = observed;
  const sim::Schedule wide_schedule(nl, wide_opts);
  EXPECT_GT(wide_schedule.tape_ops(), 0u);
  EXPECT_GT(wide_schedule.levels(), 0u);
  EXPECT_LE(wide_schedule.live_gates(), wide_schedule.comb_gates());
  sim::Simulator wide(wide_schedule);

  const unsigned limbs = lanes / 64;
  std::vector<testutil::ReferenceSimulator> oracles(
      limbs, testutil::ReferenceSimulator(nl));

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

// --- a cut-out gate list on the tape ------------------------------------------

// A gate list cut out of a netlist the way the exact verifier and the
// gadget check build theirs: the fan-in of `roots` (plus a `dead` branch
// that is walked but not kept), ascending by signal id, stopping at
// `leaves` — internal gates of the netlist that become driven sources, like
// gadget operands. Inputs and constants stay sources of their own kind.
struct CutList {
  std::vector<netlist::Gate> gates;
  std::vector<SignalId> signal;     // entry -> netlist signal
  std::vector<std::uint32_t> keep;  // entries of the roots
  std::uint32_t dead = 0;           // entry of the dead branch's head
};

CutList cut_gate_list(const Netlist& nl, const std::vector<SignalId>& leaves,
                      const std::vector<SignalId>& roots, SignalId dead) {
  std::vector<char> is_leaf(nl.size(), 0), walked(nl.size(), 0);
  for (const SignalId s : leaves) is_leaf[s] = 1;
  std::vector<SignalId> stack = roots;
  stack.push_back(dead);
  while (!stack.empty()) {
    const SignalId id = stack.back();
    stack.pop_back();
    if (walked[id]) continue;
    walked[id] = 1;
    if (is_leaf[id]) continue;
    const netlist::Gate& g = nl.gate(id);
    for (std::size_t k = 0; k < netlist::gate_arity(g.kind); ++k)
      stack.push_back(g.fanin[k]);
  }
  CutList c;
  std::vector<std::uint32_t> entry(nl.size(), 0);
  for (SignalId id = 0; id < nl.size(); ++id) {
    if (!walked[id]) continue;
    netlist::Gate g{netlist::GateKind::kInput, {}};
    if (!is_leaf[id]) {
      g.kind = nl.kind(id);
      for (std::size_t k = 0; k < netlist::gate_arity(g.kind); ++k)
        g.fanin[k] = entry[nl.gate(id).fanin[k]];
    }
    entry[id] = static_cast<std::uint32_t>(c.gates.size());
    c.gates.push_back(g);
    c.signal.push_back(id);
  }
  for (const SignalId r : roots) c.keep.push_back(entry[r]);
  c.dead = entry[dead];
  return c;
}

// Compiles `c` once and runs it at kLimbs against kLimbs oracles of the
// whole netlist: every driven source (leaf or input) takes its oracle
// value, and every entry the tape keeps readable must match per limb.
// Returns the number of entries compared.
template <unsigned kLimbs>
std::size_t expect_cut_list_matches_oracle(const Netlist& nl,
                                           const CutList& c) {
  const sim::Tape tape = sim::compile_tape(c.gates, c.keep);
  std::vector<std::uint64_t> slots;
  sim::reset_slots(tape, kLimbs, slots);
  std::vector<testutil::ReferenceSimulator> oracles(
      kLimbs, testutil::ReferenceSimulator(nl));
  common::Xoshiro256 rng(0xC0DE);
  std::size_t compared = 0;
  for (std::size_t round = 0; round < 16; ++round) {
    for (const auto& in : nl.inputs())
      for (unsigned b = 0; b < kLimbs; ++b)
        oracles[b].set_input(in.signal, rng.next());
    for (unsigned b = 0; b < kLimbs; ++b) oracles[b].settle();
    for (std::size_t e = 0; e < c.gates.size(); ++e)
      if (c.gates[e].kind == netlist::GateKind::kInput)
        for (unsigned b = 0; b < kLimbs; ++b)
          slots[tape.slot_of[e] * kLimbs + b] = oracles[b].value(c.signal[e]);
    sim::run_tape<kLimbs>(tape, slots.data());
    compared = 0;
    for (std::size_t e = 0; e < c.gates.size(); ++e) {
      if (tape.slot_of[e] == sim::Tape::kNoSlot) continue;
      ++compared;
      for (unsigned b = 0; b < kLimbs; ++b)
        EXPECT_EQ(slots[tape.slot_of[e] * kLimbs + b],
                  oracles[b].value(c.signal[e]))
            << kLimbs * 64 << " lanes, round " << round << ", limb " << b
            << ", signal " << nl.signal_name(c.signal[e]);
    }
  }
  return compared;
}

TEST(Kernel, CutGateListMatchesOracleAtAllWidths) {
  // A front of random gates over the inputs, four of its internal gates as
  // the cut's leaves, and a back over leaves, inputs and both constants
  // with a MUX, a constant-fed XOR and NAND, and a two-gate dead branch.
  Netlist nl;
  common::Xoshiro256 rng(17);
  constexpr netlist::GateKind kKinds[] = {
      netlist::GateKind::kAnd, netlist::GateKind::kNand,
      netlist::GateKind::kOr,  netlist::GateKind::kNor,
      netlist::GateKind::kXor, netlist::GateKind::kXnor,
      netlist::GateKind::kNot, netlist::GateKind::kBuf,
      netlist::GateKind::kMux};
  const auto grow = [&](std::vector<SignalId>& pool, std::size_t gates) {
    for (std::size_t i = 0; i < gates; ++i) {
      const netlist::GateKind kind = kKinds[rng.below(std::size(kKinds))];
      const auto pick = [&] { return pool[rng.below(pool.size())]; };
      const std::size_t arity = netlist::gate_arity(kind);
      const SignalId a = pick();
      const SignalId b = arity > 1 ? pick() : netlist::kNoSignal;
      const SignalId m = arity > 2 ? pick() : netlist::kNoSignal;
      pool.push_back(nl.add_gate(kind, a, b, m));
    }
  };
  std::vector<SignalId> front;
  for (std::size_t i = 0; i < 6; ++i)
    front.push_back(nl.add_input(netlist::InputRole::kRandom,
                                 common::make_name("x", i)));
  const SignalId c0 = nl.constant(false);
  const SignalId c1 = nl.constant(true);
  grow(front, 24);
  const std::vector<SignalId> leaves = {front[9], front[14], front[20],
                                        front[27]};
  std::vector<SignalId> back = leaves;
  back.insert(back.end(), {front[0], front[3], c0, c1});
  grow(back, 30);
  const SignalId mux = nl.mux(leaves[0], back.back(), back[back.size() - 5]);
  const SignalId with_one = nl.xor_(mux, c1);
  const SignalId with_zero = nl.nand_(with_one, c0);
  const SignalId dead =
      nl.not_(nl.and_(back[back.size() - 3], leaves[1]));
  const std::vector<SignalId> roots = {mux, with_one, with_zero, back[12],
                                       back[20], back.back()};
  nl.validate();

  const CutList c = cut_gate_list(nl, leaves, roots, dead);
  const sim::Tape tape = sim::compile_tape(c.gates, c.keep);
  EXPECT_EQ(tape.slot_of[c.dead], sim::Tape::kNoSlot);  // eliminated
  std::size_t comb = 0, mux_gates = 0;
  for (const netlist::Gate& g : c.gates) {
    comb += netlist::gate_arity(g.kind) > 0 ? 1 : 0;
    mux_gates += g.kind == netlist::GateKind::kMux ? 1 : 0;
  }
  EXPECT_LE(tape.live_gates + 2, comb);
  EXPECT_GT(mux_gates, 0u);
  EXPECT_EQ(tape.const_one_slots.size(), 1u);
  for (const SignalId leaf : leaves)
    EXPECT_NE(netlist::gate_arity(nl.kind(leaf)), 0u);  // internal gates

  const std::size_t compared = expect_cut_list_matches_oracle<1>(nl, c);
  EXPECT_GT(compared, c.keep.size());
  EXPECT_EQ(expect_cut_list_matches_oracle<4>(nl, c), compared);
  EXPECT_EQ(expect_cut_list_matches_oracle<8>(nl, c), compared);
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
