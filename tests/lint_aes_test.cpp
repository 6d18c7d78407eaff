// Whole-design lint of the masked AES-128 core through slice extraction
// (ctest label `lint-aes`): the Eq. (6) randomness plan must be flagged as
// R1 fresh reuse inside *every* Sbox instance's G7 — all 16 SubBytes and
// all 4 key-schedule instances, attributed to the state/key byte the
// instance reads — and the repaired Eq. (9) plan must lint glitch-clean
// across all 20. Every finding carries an exact counterexample certificate,
// replayed here through verif::exact_probe_distribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/report.hpp"
#include "src/gadgets/masked_aes.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/ir.hpp"
#include "src/netlist/slice.hpp"
#include "src/verif/exact.hpp"

namespace sca {
namespace {

using gadgets::RandomnessPlan;
using lint::LintFinding;
using lint::LintOptions;
using lint::LintReport;
using lint::LintRule;
using netlist::Netlist;

// The 20 Sbox instance scopes and the state/key byte each one reads: the
// SubBytes instance sb<b> consumes state register byte b (ShiftRows comes
// *after* SubBytes), the key-schedule instance ks<i> consumes key register
// byte RotWord[i].
std::map<std::string, std::string> instance_to_state_byte() {
  std::map<std::string, std::string> m;
  for (int b = 0; b < 16; ++b)
    m["aes.sb" + std::to_string(b)] = "aes.st" + std::to_string(b);
  constexpr int kRotWord[4] = {13, 14, 15, 12};
  for (int i = 0; i < 4; ++i)
    m["aes.ks" + std::to_string(i)] = "aes.k" + std::to_string(kRotWord[i]);
  return m;
}

// Instance scope of a probe name "aes.sb12.kron.G7.x" -> "aes.sb12".
std::string instance_of(const std::string& probe_name) {
  const auto pos = probe_name.find(".kron.");
  return pos == std::string::npos ? std::string() : probe_name.substr(0, pos);
}

Netlist build_aes(const RandomnessPlan& plan) {
  Netlist nl;
  gadgets::MaskedAesOptions options;
  options.kron_plan = plan;
  gadgets::build_masked_aes128(nl, options);
  return nl;
}

LintOptions whole_design_options() {
  LintOptions options;
  options.model = lint::LintModel::kGlitch;
  options.feedback = lint::FeedbackMode::kSlice;
  // No scope fence: the support-annotation sublattice tracks the
  // non-zero-constrained B2M multiplier buses through every instance's
  // multiplicative conversion, so the whole core — all 20 Sbox instances
  // end to end, not just their Kronecker subtrees — is a sound verdict.
  // The findings below must still be *exactly* the paper's: R1 at G7,
  // nothing flagged anywhere else.
  return options;
}

TEST(LintAes, Eq6FlagsFreshReuseInsideEveryInstanceG7WithCertificates) {
  const Netlist nl = build_aes(RandomnessPlan::kron1_demeyer_eq6());
  LintOptions options = whole_design_options();
  options.certify = true;
  const LintReport report = lint::run_lint(nl, options);

  // The feedback design was sliced, not rejected: all 512 state/key share
  // registers plus the 8 controller registers (phase, round, ran) were cut.
  EXPECT_TRUE(report.sliced);
  EXPECT_EQ(report.cut_registers, 520u);
  ASSERT_FALSE(report.clean());

  const std::map<std::string, std::string> expected_byte =
      instance_to_state_byte();
  std::set<std::string> flagged_instances;
  for (const LintFinding& f : report.findings) {
    // Golden shape: every finding is the paper's R1 fresh reuse at G7.
    EXPECT_EQ(f.rule, LintRule::kR1FreshReuse) << f.message;
    EXPECT_NE(f.probe_name.find(".kron.G7"), std::string::npos) << f.message;
    EXPECT_FALSE(f.shared_fresh.empty()) << f.message;

    const std::string instance = instance_of(f.probe_name);
    ASSERT_TRUE(expected_byte.contains(instance)) << f.probe_name;
    flagged_instances.insert(instance);

    // Per-instance attribution: the completed sharing must be the state or
    // key register byte this instance reads, carried across the register
    // cut by the label transfer ("aes.st3.b1@t-5" style).
    const std::string want = expected_byte.at(instance) + ".b";
    bool attributed = false;
    for (const std::string& c : f.completed)
      attributed |= c.compare(0, want.size(), want) == 0;
    EXPECT_TRUE(attributed)
        << f.message << " — expected a completed sharing of " << want << "*";
  }
  // All 20 instances (16 SubBytes + 4 key schedule) are flagged.
  EXPECT_EQ(flagged_instances.size(), expected_byte.size()) << [&] {
    std::string missing;
    for (const auto& [instance, byte] : expected_byte)
      if (!flagged_instances.contains(instance)) missing += instance + " ";
    return "missing: " + missing;
  }();

  // Every finding carries a *validated* counterexample certificate: replay
  // the witness through the exact engine on the same slice and check the
  // two secret values really induce different observation distributions.
  // Each replay unrolls the whole slice, so the replays run in parallel.
  netlist::Slice slice = netlist::extract_slice(nl);
  verif::ExactOptions exact_options;
  exact_options.held_inputs = slice.held_inputs;
  std::vector<std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>>
      replays(report.findings.size());
  common::parallel_for(report.findings.size(), 0, [&](std::size_t i) {
    replays[i] = verif::exact_probe_distribution(
        slice.nl, report.findings[i].probe, exact_options);
  });
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const LintFinding& f = report.findings[i];
    ASSERT_TRUE(f.certificate.has_value()) << f.message;
    const lint::LintCertificate& cert = *f.certificate;
    ASSERT_TRUE(cert.available)
        << f.message << " — " << cert.unavailable_reason;
    EXPECT_GT(cert.tv_distance, 0.0);
    EXPECT_GT(cert.count_a, cert.count_b);
    EXPECT_NE(cert.secret_a, cert.secret_b);
    EXPECT_FALSE(cert.secret_bits.empty());
    EXPECT_FALSE(cert.assignment.empty());

    const auto& distributions = replays[i];
    const auto& dist_a = distributions.at(cert.secret_a);
    const auto& dist_b = distributions.at(cert.secret_b);
    EXPECT_NE(dist_a, dist_b) << f.message;
    const auto it_a = dist_a.find(cert.observation);
    ASSERT_NE(it_a, dist_a.end()) << f.message;
    EXPECT_EQ(it_a->second, cert.count_a);
    const auto it_b = dist_b.find(cert.observation);
    EXPECT_EQ(it_b == dist_b.end() ? 0u : it_b->second, cert.count_b);
  }

  // Certificate serialization: the JSON report inlines the witness.
  const std::string json = eval::to_json(report);
  EXPECT_NE(json.find("\"sliced\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cut_registers\":520"), std::string::npos);
  EXPECT_NE(json.find("\"certificate\":{\"available\":true"),
            std::string::npos);
  EXPECT_NE(json.find("\"assignment\":{"), std::string::npos);
}

TEST(LintAes, Eq9LintsGlitchCleanAcrossAllTwentyInstances) {
  const Netlist nl = build_aes(RandomnessPlan::kron1_proposed_eq9());
  const LintReport report = lint::run_lint(nl, whole_design_options());
  EXPECT_TRUE(report.sliced);
  EXPECT_EQ(report.cut_registers, 520u);
  EXPECT_GT(report.probes_checked, 0u);
  EXPECT_TRUE(report.clean()) << to_string(report);
  // Clean probes never get a certificate — there is nothing to certify.
  for (const LintFinding& f : report.findings)
    EXPECT_FALSE(f.certificate.has_value());
}

}  // namespace
}  // namespace sca
