// Equivalence suite for the exact verifier's enumerator: its reports,
// distributions and certificates are identical at every lane width, and
// its word-level counts match the per-lane reference enumerator
// (tests/reference_exact.hpp) on random small masked netlists.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/names.hpp"
#include "src/common/rng.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/ir.hpp"
#include "src/verif/exact.hpp"
#include "src/verif/exact_detail.hpp"
#include "tests/reference_exact.hpp"
#include "tests/test_util.hpp"

namespace sca::verif {
namespace {

using gadgets::RandomnessPlan;
using netlist::GateKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

constexpr unsigned kLaneWidths[] = {64, 256, 512};

// --- lane-width invariance ---------------------------------------------------

void expect_same_report(const ExactReport& a, const ExactReport& b) {
  EXPECT_EQ(to_string(a), to_string(b));
  EXPECT_EQ(a.any_leak, b.any_leak);
  EXPECT_EQ(a.any_skipped, b.any_skipped);
  EXPECT_EQ(a.probes_total, b.probes_total);
  EXPECT_EQ(a.probes_leaking, b.probes_leaking);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    const ExactProbeResult& p = a.probes[i];
    const ExactProbeResult& q = b.probes[i];
    EXPECT_EQ(p.probe, q.probe);
    EXPECT_EQ(p.name, q.name);
    EXPECT_EQ(p.observation_bits, q.observation_bits);
    EXPECT_EQ(p.secret_bits, q.secret_bits);
    EXPECT_EQ(p.free_bits, q.free_bits);
    EXPECT_EQ(p.skipped, q.skipped);
    EXPECT_EQ(p.leaks, q.leaks);
    EXPECT_EQ(p.max_tv_distance, q.max_tv_distance) << p.name;
    EXPECT_EQ(p.witness_a, q.witness_a);
    EXPECT_EQ(p.witness_b, q.witness_b);
  }
}

TEST(ExactLanes, ReportsIdenticalAtEveryWidth) {
  for (const RandomnessPlan& plan : {RandomnessPlan::kron1_demeyer_eq6(),
                                     RandomnessPlan::kron1_proposed_eq9()})
    for (const bool transitions : {false, true}) {
      const Netlist nl = testutil::kronecker_netlist(plan);
      ExactOptions options;
      options.transitions = transitions;
      options.lanes = 64;
      const ExactReport base = verify_first_order_glitch(nl, options);
      EXPECT_FALSE(base.probes.empty());
      for (const unsigned lanes : {256u, 512u}) {
        SCOPED_TRACE(common::make_name("lanes ", lanes, " transitions ",
                                       transitions ? 1 : 0));
        options.lanes = lanes;
        expect_same_report(base, verify_first_order_glitch(nl, options));
      }
    }
}

TEST(ExactLanes, DistributionsIdenticalAtEveryWidth) {
  const Netlist nl =
      testutil::kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  std::vector<ProbeDistribution> base;
  std::size_t enumerated = 0;
  for (const unsigned lanes : kLaneWidths) {
    ExactOptions options;
    options.lanes = lanes;
    const ProbeDistributionEngine engine(nl, options);
    for (SignalId probe = 0; probe < nl.size(); ++probe) {
      const ProbeDistribution dist = engine.distribution(probe);
      if (lanes == 64) {
        enumerated += dist.counts.empty() ? 0 : 1;
        base.push_back(dist);
        continue;
      }
      const ProbeDistribution& b = base[probe];
      EXPECT_EQ(dist.feasible, b.feasible);
      EXPECT_EQ(dist.secret_bits, b.secret_bits);
      EXPECT_EQ(dist.observation, b.observation);
      EXPECT_EQ(dist.free_bits, b.free_bits);
      EXPECT_EQ(dist.counts, b.counts) << nl.signal_name(probe) << " at "
                                       << lanes << " lanes";
    }
  }
  EXPECT_GT(enumerated, 0u);
}

TEST(ExactLanes, LintCertificatesIdenticalAtEveryWidth) {
  struct Case {
    Netlist nl;
    lint::LintModel model;
  };
  // Eq.(6) gives glitch-model certificates. Eq.(9)'s R4 findings need a
  // 2^32 enumeration, so the transition-model certificates come from the
  // minimal Section IV shape: both shares masked with the same fresh bit at
  // register depths 1 and 2.
  Netlist r4;
  const SignalId x0 = r4.add_input(InputRole::kShare, "x0", {0, 0, 0});
  const SignalId x1 = r4.add_input(InputRole::kShare, "x1", {0, 1, 0});
  const SignalId r = r4.add_input(InputRole::kRandom, "r");
  r4.and_(r4.reg(r4.xor_(x0, r)), r4.reg(r4.reg(r4.xor_(x1, r))));
  const Case cases[] = {
      {testutil::kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6()),
       lint::LintModel::kGlitch},
      {r4, lint::LintModel::kGlitchTransition}};
  for (const Case& c : cases) {
    const Netlist& nl = c.nl;
    std::vector<lint::LintFinding> base;
    for (const unsigned lanes : kLaneWidths) {
      lint::LintOptions options;
      options.model = c.model;
      options.certify = true;
      options.certify_options.lanes = lanes;
      const lint::LintReport report = lint::run_lint(nl, options);
      if (lanes == 64) {
        base = report.findings;
        ASSERT_FALSE(base.empty());
        continue;
      }
      ASSERT_EQ(report.findings.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const lint::LintFinding& f = report.findings[i];
        ASSERT_TRUE(f.certificate.has_value());
        ASSERT_TRUE(base[i].certificate.has_value());
        const lint::LintCertificate& x = *f.certificate;
        const lint::LintCertificate& y = *base[i].certificate;
        SCOPED_TRACE(f.message);
        EXPECT_TRUE(x.available);
        EXPECT_EQ(x.available, y.available);
        EXPECT_EQ(x.unavailable_reason, y.unavailable_reason);
        EXPECT_EQ(x.secret_bits, y.secret_bits);
        EXPECT_EQ(x.secret_a, y.secret_a);
        EXPECT_EQ(x.secret_b, y.secret_b);
        EXPECT_EQ(x.tv_distance, y.tv_distance);
        EXPECT_EQ(x.observation, y.observation);
        EXPECT_EQ(x.count_a, y.count_a);
        EXPECT_EQ(x.count_b, y.count_b);
        EXPECT_EQ(x.assignment, y.assignment);
      }
    }
  }
}

// --- per-lane reference on random masked netlists ---------------------------

// A random small pipeline: 1-2 secrets of 1-4 bits in 2-3 shares, loose
// random bits, sometimes an annotated nonzero bus, a public control input
// and held inputs, and 1-3 stages of random gates over nearby signals with
// a register layer between stages.
struct RandomCase {
  Netlist nl;
  std::vector<SignalId> held;
};

RandomCase random_masked_netlist(std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  RandomCase c;
  Netlist& nl = c.nl;
  std::vector<SignalId> pool;
  // Unmasked recombinations fold every share of every bit into one chain:
  // probes with many secret bits and few free ones, whose secret does not
  // fit on the block bits.
  const bool recombine = rng.below(3) == 0;
  SignalId chain = netlist::kNoSignal;
  const std::uint32_t secrets = 1 + static_cast<std::uint32_t>(rng.below(2));
  for (std::uint32_t s = 0; s < secrets; ++s) {
    const std::uint32_t bits = 1 + static_cast<std::uint32_t>(rng.below(4));
    const std::uint32_t shares = 2 + static_cast<std::uint32_t>(rng.below(2));
    for (std::uint32_t b = 0; b < bits; ++b)
      for (std::uint32_t k = 0; k < shares; ++k) {
        pool.push_back(nl.add_input(InputRole::kShare,
                                    common::make_name("s", s, "b", b, "_", k),
                                    {s, k, b}));
        if (recombine)
          chain = chain == netlist::kNoSignal
                      ? pool.back()
                      : nl.add_gate(rng.below(4) == 0 ? GateKind::kAnd
                                                      : GateKind::kXor,
                                    chain, pool.back());
      }
  }
  if (recombine) pool.push_back(chain);
  const std::size_t randoms = 1 + rng.below(4);
  for (std::size_t i = 0; i < randoms; ++i)
    pool.push_back(
        nl.add_input(InputRole::kRandom, common::make_name("r", i)));
  if (rng.bit()) {
    std::vector<SignalId> bus;
    for (std::size_t i = 0; i < 8; ++i)
      bus.push_back(
          nl.add_input(InputRole::kRandom, common::make_name("z", i)));
    nl.add_nonzero_bus(bus);
    // Hold the bus (one draw per unroll window) or read a few of its bits.
    if (rng.below(3) == 0) c.held = bus;
    const std::size_t read = 1 + rng.below(4);
    for (std::size_t i = 0; i < read; ++i) pool.push_back(bus[rng.below(8)]);
  }
  if (rng.below(3) == 0)
    pool.push_back(nl.add_input(InputRole::kControl, "ctl"));
  for (const auto& in : nl.inputs())
    if (in.role == InputRole::kShare && rng.below(6) == 0)
      c.held.push_back(in.signal);

  constexpr GateKind kKinds[] = {
      GateKind::kAnd, GateKind::kNand, GateKind::kOr,  GateKind::kNor,
      GateKind::kXor, GateKind::kXnor, GateKind::kNot, GateKind::kBuf,
      GateKind::kMux, GateKind::kXor,  GateKind::kAnd, GateKind::kXor};
  const std::size_t stages = 1 + rng.below(3);
  for (std::size_t stage = 0; stage < stages; ++stage) {
    const std::size_t gates = 4 + rng.below(8);
    for (std::size_t i = 0; i < gates; ++i) {
      // Mostly nearby operands, so cones stay enumerable.
      const auto pick = [&] {
        const std::size_t window = std::min<std::size_t>(pool.size(), 8);
        return rng.below(5) == 0 ? pool[rng.below(pool.size())]
                                 : pool[pool.size() - 1 - rng.below(window)];
      };
      const GateKind kind = kKinds[rng.below(std::size(kKinds))];
      const std::size_t arity = netlist::gate_arity(kind);
      const SignalId a = pick();
      const SignalId b = arity > 1 ? pick() : netlist::kNoSignal;
      const SignalId m = arity > 2 ? pick() : netlist::kNoSignal;
      pool.push_back(nl.add_gate(kind, a, b, m));
    }
    if (stage + 1 < stages) {
      const std::size_t regs = 2 + rng.below(3);
      for (std::size_t i = 0; i < regs; ++i)
        pool.push_back(nl.reg(pool[pool.size() - 1 - rng.below(4)]));
    }
  }
  if (rng.below(4) == 0) pool.push_back(nl.constant(rng.bit() != 0));
  return c;
}

// One engine per entry of kLaneWidths, all on `nl` with `options`.
std::vector<std::unique_ptr<ProbeDistributionEngine>> engines_at_every_width(
    const Netlist& nl, ExactOptions options) {
  std::vector<std::unique_ptr<ProbeDistributionEngine>> engines;
  for (const unsigned lanes : kLaneWidths) {
    options.lanes = lanes;
    engines.push_back(std::make_unique<ProbeDistributionEngine>(nl, options));
  }
  return engines;
}

// The distribution of `probe` (analysis `a`, feasible and with a secret)
// at every width equals the per-lane reference's counts, and certificate
// queries — the first, a middle and the last reachable (secret, obs), plus
// one unreachable one where there is any — return the reference's first
// hit.
void expect_probe_matches_reference(
    const Netlist& nl,
    const std::vector<std::unique_ptr<ProbeDistributionEngine>>& engines,
    SignalId probe, const detail::Analysis& a) {
  const Netlist& unrolled = engines.front()->unrolled_netlist();
  const testutil::ReferenceEnumeration ref =
      testutil::reference_enumerate(unrolled, a);
  std::vector<std::size_t> queries;
  std::size_t unreachable = ref.counts.size();
  for (std::size_t i = 0; i < ref.counts.size(); ++i) {
    if (ref.counts[i] != 0) queries.push_back(i);
    else if (unreachable == ref.counts.size()) unreachable = i;
  }
  ASSERT_FALSE(queries.empty());
  queries = {queries.front(), queries[queries.size() / 2], queries.back()};
  if (unreachable != ref.counts.size()) queries.push_back(unreachable);

  for (std::size_t e = 0; e < engines.size(); ++e) {
    SCOPED_TRACE(common::make_name(nl.signal_name(probe), " at ",
                                   kLaneWidths[e], " lanes"));
    ASSERT_EQ(engines[e]->distribution(probe).counts, ref.counts);
    for (const std::size_t q : queries) {
      const std::uint64_t secret = q >> a.observation.size();
      const std::uint64_t obs =
          q & ((std::uint64_t{1} << a.observation.size()) - 1);
      const auto got = engines[e]->preimage(probe, secret, obs);
      if (ref.counts[q] == 0) {
        EXPECT_TRUE(got.empty());
      } else {
        EXPECT_EQ(got, testutil::reference_assignment(unrolled, a,
                                                      ref.first_hit[q]));
      }
    }
  }
}

TEST(ExactReference, WordCountsAndFirstHitsMatchPerLaneReference) {
  // Coverage: enumerations inside one 512-lane block; multi-block ones
  // with the secret partly in the word, and with the secret on block bits
  // (at 64 or 512 lanes); narrow and wide observations; nonzero groups;
  // held inputs.
  std::size_t one_block = 0, secret_in_word = 0, secret_on_blocks = 0;
  std::size_t wide = 0, nonzero = 0, held = 0, enumerated = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const RandomCase c = random_masked_netlist(seed);
    for (const bool transitions : {false, true}) {
      SCOPED_TRACE(common::make_name("seed ", seed, " transitions ",
                                     transitions ? 1 : 0));
      ExactOptions options;
      options.transitions = transitions;
      options.held_inputs = c.held;
      options.max_vars = 16;
      options.max_observation_bits = 12;
      const auto engines = engines_at_every_width(c.nl, options);
      for (SignalId probe = 0; probe < c.nl.size(); ++probe) {
        const GateKind k = c.nl.kind(probe);
        if (k == GateKind::kConst0 || k == GateKind::kConst1) continue;
        const detail::Analysis a = engines.front()->analysis(probe);
        if (!a.feasible || a.secret_var_indices.empty()) {
          for (const auto& engine : engines)
            EXPECT_TRUE(engine->distribution(probe).counts.empty());
          continue;
        }
        ++enumerated;
        const std::size_t nv = a.vars.size();
        const std::size_t n_free = nv - a.secret_var_indices.size();
        one_block += nv <= 9 ? 1 : 0;
        for (const std::size_t lane_bits : {6u, 9u}) {
          if (nv <= lane_bits) continue;
          ++(n_free < lane_bits ? secret_in_word : secret_on_blocks);
        }
        wide += a.observation.size() > 8 ? 1 : 0;
        nonzero += a.nonzero_groups.empty() ? 0 : 1;
        held += c.held.empty() ? 0 : 1;

        expect_probe_matches_reference(c.nl, engines, probe, a);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(enumerated, 500u);
  EXPECT_GT(one_block, 0u);
  EXPECT_GT(secret_in_word, 0u);
  EXPECT_GT(secret_on_blocks, 0u);
  EXPECT_GT(wide, 0u);
  EXPECT_GT(nonzero, 0u);
  EXPECT_GT(held, 0u);
}

TEST(ExactReference, ConstantFedConesMatchPerLaneReference) {
  // Registered gates that read both constants: the observations behind the
  // registers are cones with constant sources, so the enumeration depends
  // on the constants holding their values (a constant-1 select picks the
  // mask r0, not the share s0_1).
  Netlist nl;
  const SignalId s00 = nl.add_input(InputRole::kShare, "s0_0", {0, 0, 0});
  const SignalId s01 = nl.add_input(InputRole::kShare, "s0_1", {0, 1, 0});
  const SignalId s10 = nl.add_input(InputRole::kShare, "s1_0", {0, 0, 1});
  const SignalId s11 = nl.add_input(InputRole::kShare, "s1_1", {0, 1, 1});
  const SignalId r0 = nl.add_input(InputRole::kRandom, "r0");
  const SignalId r1 = nl.add_input(InputRole::kRandom, "r1");
  const SignalId c0 = nl.constant(false);
  const SignalId c1 = nl.constant(true);
  const SignalId q1 = nl.reg(nl.xor_(s00, c1));
  const SignalId q2 = nl.reg(nl.mux(c1, s01, r0));
  const SignalId q3 = nl.reg(nl.or_(nl.and_(s10, r1), c0));
  const SignalId q4 = nl.reg(nl.nand_(s11, c1));
  const SignalId q5 = nl.reg(nl.xnor_(nl.mux(c0, r0, s01), c0));
  const SignalId h1 = nl.xor_(q1, q2);
  nl.reg(nl.xor_(h1, nl.and_(q3, q4)));
  nl.xor_(h1, q5);
  std::size_t enumerated = 0;
  for (const bool transitions : {false, true}) {
    SCOPED_TRACE(common::make_name("transitions ", transitions ? 1 : 0));
    ExactOptions options;
    options.transitions = transitions;
    const auto engines = engines_at_every_width(nl, options);
    for (SignalId probe = 0; probe < nl.size(); ++probe) {
      const GateKind k = nl.kind(probe);
      if (k == GateKind::kConst0 || k == GateKind::kConst1) continue;
      const detail::Analysis a = engines.front()->analysis(probe);
      if (!a.feasible || a.secret_var_indices.empty()) continue;
      ++enumerated;
      expect_probe_matches_reference(nl, engines, probe, a);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(enumerated, 4u);
}

}  // namespace
}  // namespace sca::verif
