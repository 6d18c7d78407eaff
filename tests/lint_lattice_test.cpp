// Byte pins and edge cases of the lint lattice (src/lint/lattice.cpp).
//
// The pins fix eval::to_json(LintReport) — verdicts, OTP cut counts,
// offending signals, shared fresh bits and completed sharings — for the
// paper's Kronecker plans at orders 1 and 2 and for whole-Sbox designs that
// exercise the support sublattice, so a change to the analysis that moves
// any reported byte fails here rather than only in the benchmark digests.
// The remaining cases cover what the paper's designs never reach: a tuple
// whose fixpoint outgrows the initial width of the lattice's variable
// arena, and gadget annotations that re-verification must reject.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/core/report.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/gf_circuits.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/lint/linter.hpp"

namespace sca {
namespace {

using gadgets::RandomnessPlan;
using lint::LintModel;
using lint::LintOptions;
using lint::LintReport;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Netlist build_kronecker(const RandomnessPlan& plan, std::size_t share_count) {
  Netlist nl;
  std::vector<gadgets::Bus> shares;
  for (std::size_t i = 0; i < share_count; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, InputRole::kShare, common::make_name("b", i, "_"), 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

Netlist build_sbox(const std::function<void(gadgets::MaskedSboxOptions&)>&
                       configure) {
  Netlist nl;
  gadgets::MaskedSboxOptions options;
  configure(options);
  gadgets::build_masked_sbox(nl, options);
  return nl;
}

struct LintPin {
  const char* name;
  std::function<Netlist()> build;
  LintModel model;
  unsigned order;
  bool clean;
  std::size_t probes_flagged;
  std::size_t otp_cuts;
  const char* json_digest;  ///< FNV-1a of eval::to_json(report)
};

std::vector<LintPin> lint_pins() {
  const auto kron1 = [](RandomnessPlan (*plan)()) {
    return [plan] { return build_kronecker(plan(), 2); };
  };
  const auto kron2 = [](RandomnessPlan (*plan)()) {
    return [plan] { return build_kronecker(plan(), 3); };
  };
  return {
      {"kron1 Eq.(6) glitch", kron1(&RandomnessPlan::kron1_demeyer_eq6),
       LintModel::kGlitch, 1, false, 6, 156,
       "ff54805d7547219e"},
      {"kron1 Eq.(6) glitch+transition",
       kron1(&RandomnessPlan::kron1_demeyer_eq6),
       LintModel::kGlitchTransition, 1, false, 10, 288,
       "a7f3a70ecd85744f"},
      {"kron1 Eq.(9) glitch", kron1(&RandomnessPlan::kron1_proposed_eq9),
       LintModel::kGlitch, 1, true, 0, 190,
       "40c46c14b9b4c748"},
      {"kron1 Eq.(9) glitch+transition",
       kron1(&RandomnessPlan::kron1_proposed_eq9),
       LintModel::kGlitchTransition, 1, false, 6, 328,
       "dceb7fb185aa38d2"},
      {"kron2 full fresh", kron2(&RandomnessPlan::kron2_full_fresh),
       LintModel::kGlitch, 2, true, 0, 178190,
       "2f564fbe7dc082c9"},
      {"kron2 reduced", kron2(&RandomnessPlan::kron2_reduced),
       LintModel::kGlitch, 2, true, 0, 178335,
       "01f39472ab5d2fb8"},
      {"kron2 reduced leaky", kron2(&RandomnessPlan::kron2_reduced_leaky),
       LintModel::kGlitch, 2, false, 6, 174872,
       "d70393e0dab9ddcb"},
      {"whole Sbox Eq.(9)",
       [] {
         return build_sbox([](gadgets::MaskedSboxOptions& o) {
           o.kron_plan = RandomnessPlan::kron1_proposed_eq9();
         });
       },
       LintModel::kGlitch, 1, true, 0, 1597,
       "8bc3caf5f4789ecc"},
      {"whole Sbox without Kronecker",
       [] {
         return build_sbox([](gadgets::MaskedSboxOptions& o) {
           o.include_kronecker = false;
         });
       },
       LintModel::kGlitch, 1, false, 49, 664,
       "3be36e6393adbdc4"},
  };
}

TEST(LintPins, ReportBytesArePinned) {
  for (const LintPin& pin : lint_pins()) {
    SCOPED_TRACE(pin.name);
    LintOptions options;
    options.model = pin.model;
    options.order = pin.order;
    const LintReport report = lint::run_lint(pin.build(), options);
    const std::string json = eval::to_json(report);
    EXPECT_EQ(report.clean(), pin.clean) << to_string(report);
    EXPECT_EQ(report.probes_flagged, pin.probes_flagged);
    EXPECT_EQ(report.cuts_applied, pin.otp_cuts);
    EXPECT_EQ(fnv1a_hex(json), pin.json_digest) << json;
  }
}

// The lattice sizes its variable arena to the tuple's leaf variables (here
// 50: two shares, a nonzero byte B and five fresh bytes A_k, one 64-bit
// word) and widens it as cuts and gadget rules create virtual variables —
// 130 in total here, past twice the initial width. The probe reads
// y_k = reg(A_k * B ^ s0) for k < 5 and reg(s1). By hand, the fixpoint does:
//   * 5 multiplier rules: A_k is fresh uniform and observed only through
//     A_k * B with B nonzero, so each product byte becomes a fresh byte
//     (40 new variables);
//   * 40 node cuts: each fresh product bit pads its y_k bit, which becomes
//     a virtual variable (40 more);
//   * 40 row cuts: Gaussian elimination finds each virtual variable alone
//     in its element row.
// That is 85 eliminations, and the residual {s1} completes no sharing.
TEST(LintLattice, ArenaWidensPastTwiceItsInitialVariableWidth) {
  constexpr std::size_t kProducts = 5;
  Netlist nl;
  const SignalId s0 = nl.add_input(InputRole::kShare, "s0", {0, 0, 0});
  const SignalId s1 = nl.add_input(InputRole::kShare, "s1", {0, 1, 0});
  const gadgets::Bus b =
      gadgets::make_input_bus(nl, 8, InputRole::kRandom, "b");
  nl.add_nonzero_bus(b);
  std::vector<SignalId> observed;
  for (std::size_t k = 0; k < kProducts; ++k) {
    const gadgets::Bus a = gadgets::make_input_bus(
        nl, 8, InputRole::kRandom, common::make_name("a", k, "_"));
    for (const SignalId z : gadgets::build_gf256_mul(nl, a, b))
      observed.push_back(nl.reg(nl.xor_(z, s0)));
  }
  observed.push_back(nl.reg(s1));
  nl.name_signal(gadgets::xor_tree(nl, observed), "top");

  LintOptions options;
  options.scope_filter = "top";
  const LintReport report = lint::run_lint(nl, options);
  EXPECT_EQ(report.probes_checked, 1u);
  EXPECT_TRUE(report.clean()) << to_string(report);
  EXPECT_EQ(report.cuts_applied, 17 * kProducts);
}

// Gadget re-verification: a wrong annotation must stop the linter with an
// error naming the gadget (by its output bit 0), never feed the rules.
std::string lint_error(const Netlist& nl) {
  try {
    lint::run_lint(nl);
  } catch (const common::Error& e) {
    return e.what();
  }
  return "";
}

struct MulFixture {
  Netlist nl;
  gadgets::Bus a, b, z;
  MulFixture() {
    a = gadgets::make_input_bus(nl, 8, InputRole::kRandom, "a");
    b = gadgets::make_input_bus(nl, 8, InputRole::kRandom, "b");
    z = gadgets::build_gf256_mul(nl, a, b);  // correctly annotated
    gadgets::name_bus(nl, z, "z");
  }
};

TEST(LintLattice, RejectsMulAnnotationWithSwappedOutputBits) {
  MulFixture f;
  gadgets::Bus swapped = f.z;
  std::swap(swapped[0], swapped[1]);
  f.nl.add_gf_gadget({netlist::GfGadgetKind::kMul, swapped, f.a, f.b});
  const std::string error = lint_error(f.nl);
  EXPECT_NE(error.find("gf gadget annotation on z1"), std::string::npos)
      << error;
  EXPECT_NE(error.find("disagrees with MUL golden arithmetic"),
            std::string::npos)
      << error;
}

TEST(LintLattice, RejectsMulAnnotationWrongOnlyAtTheLastAssignment) {
  // Bit 0 flips only for a = b = 0xff, the last of the 2^16 assignments:
  // only an exhaustive check sees it.
  MulFixture f;
  std::vector<SignalId> operands = f.a;
  operands.insert(operands.end(), f.b.begin(), f.b.end());
  SignalId all_ones = operands.front();
  for (std::size_t i = 1; i < operands.size(); ++i)
    all_ones = f.nl.and_(all_ones, operands[i]);
  gadgets::Bus wrong = f.z;
  wrong[0] = f.nl.xor_(f.z[0], all_ones);
  f.nl.name_signal(wrong[0], "wrong0");
  f.nl.add_gf_gadget({netlist::GfGadgetKind::kMul, wrong, f.a, f.b});
  const std::string error = lint_error(f.nl);
  EXPECT_NE(error.find("gf gadget annotation on wrong0"), std::string::npos)
      << error;
  EXPECT_NE(error.find("disagrees with"), std::string::npos) << error;
}

TEST(LintLattice, RejectsAnnotationWhoseConeReachesANonOperandInput) {
  // The product is declared over a and c, but its cone reads b.
  MulFixture f;
  const gadgets::Bus c =
      gadgets::make_input_bus(f.nl, 8, InputRole::kRandom, "c");
  f.nl.add_gf_gadget({netlist::GfGadgetKind::kMul, f.z, f.a, c});
  const std::string error = lint_error(f.nl);
  EXPECT_NE(error.find("gf gadget annotation on z0"), std::string::npos)
      << error;
  EXPECT_NE(error.find("cone reaches non-operand sequential/input signal b"),
            std::string::npos)
      << error;
}

TEST(LintLattice, AcceptsCorrectGadgetAnnotations) {
  MulFixture f;
  EXPECT_EQ(lint_error(f.nl), "");
}

}  // namespace
}  // namespace sca
