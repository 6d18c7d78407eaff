// Experiments E4 + E5 (Section III, Eq. (8)): the root-cause analysis.
//
//   E4: a *single* randomness reuse, r1 = r3, already breaks first-order
//       security: the probe observation at v1 (G7's inner-domain cone) is
//       not simulatable without the unmasked bits — its distribution differs
//       when x1 = x5 = 0.
//   E5: adding r2 = r4 "could further exacerbate the vulnerabilities".
//
// Reproduce with the exact verifier: deterministic verdicts, conditional
// distributions, and severity (total-variation) comparison — then cross-check
// both with the sampled campaign.

#include <algorithm>
#include <cstdint>

#include "bench/bench_util.hpp"
#include "src/common/check.hpp"
#include "src/verif/exact.hpp"

using namespace sca;

namespace {

double exact_severity(const gadgets::RandomnessPlan& plan, bool* leaks,
                      std::string* where) {
  const netlist::Netlist nl = benchutil::kronecker_netlist(plan);
  const verif::ExactReport report = verif::verify_first_order_glitch(nl);
  *leaks = report.any_leak;
  double worst = 0.0;
  for (const auto* leak : report.leaking()) {
    if (leak->max_tv_distance > worst) {
      worst = leak->max_tv_distance;
      *where = leak->name;
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Staging staging = benchutil::parse_staging(argc, argv);
  const std::size_t sims = benchutil::simulations(150000);
  benchutil::Scorecard score("e4_single_reuse");

  std::printf("E4: single reuse r1 = r3 (plan: %s)\n",
              gadgets::RandomnessPlan::kron1_single_reuse_r1r3().describe().c_str());
  bool single_leaks = false;
  std::string single_where;
  const double single_tv = exact_severity(
      gadgets::RandomnessPlan::kron1_single_reuse_r1r3(), &single_leaks,
      &single_where);
  std::printf("  exact verdict: %s, worst probe %s, TV distance %.4f\n",
              single_leaks ? "LEAKS" : "secure", single_where.c_str(), single_tv);
  score.expect_flag("r1 = r3 alone leaks (exact)", true, single_leaks);
  benchutil::lint_check(
      score, staging,
      benchutil::kronecker_netlist(
          gadgets::RandomnessPlan::kron1_single_reuse_r1r3()),
      eval::ProbeModel::kGlitch, "", "linter flags r1 = r3 (R1 fresh reuse)",
      /*expect_flagged=*/true, "lint_single");

  // Eq. (8)'s structure: the distribution is constant over secrets with
  // x1 = x5 = 0 but differs once x1 = 1.
  {
    const netlist::Netlist nl = benchutil::kronecker_netlist(
        gadgets::RandomnessPlan::kron1_single_reuse_r1r3());
    const verif::ExactReport report = verif::verify_first_order_glitch(nl);
    const auto* leak = report.leaking().front();
    const verif::ProbeDistribution dist =
        verif::ProbeDistributionEngine(nl).distribution(leak->probe);
    common::require(dist.feasible && dist.rows() > 0x04,
                    "E4: the leaking probe's distribution is not enumerable");
    const auto base = dist.row(0x00);
    const auto same_as_base = [&](std::uint64_t v) {
      const auto row = dist.row(v);
      return std::equal(row.begin(), row.end(), base.begin());
    };
    const bool same_within = same_as_base(0x01) && same_as_base(0x04);
    bool differs_outside = false;
    for (std::uint64_t secret = 0; secret < dist.rows(); ++secret)
      if ((secret & 0b00100010) && !same_as_base(secret))
        differs_outside = true;
    score.expect_flag("distribution constant while x1 = x5 = 0 (Eq. (8))",
                      true, same_within);
    score.expect_flag("distribution changes once x1 or x5 is set", true,
                      differs_outside);
  }

  std::printf("\nE5: pair reuse r1 = r3, r2 = r4 exacerbates\n");
  bool pair_leaks = false;
  std::string pair_where;
  const double pair_tv = exact_severity(
      gadgets::RandomnessPlan::kron1_pair_reuse(), &pair_leaks, &pair_where);
  std::printf("  exact verdict: %s, worst probe %s, TV distance %.4f\n",
              pair_leaks ? "LEAKS" : "secure", pair_where.c_str(), pair_tv);
  score.expect_flag("r1=r3 + r2=r4 leaks (exact)", true, pair_leaks);
  benchutil::lint_check(
      score, staging,
      benchutil::kronecker_netlist(gadgets::RandomnessPlan::kron1_pair_reuse()),
      eval::ProbeModel::kGlitch, "", "linter flags the pair reuse",
      /*expect_flagged=*/true, "lint_pair");
  score.expect_flag("pair reuse is strictly more severe (TV distance)", true,
                    pair_tv > single_tv);

  std::printf("\ncross-check with the sampled campaign (%zu sims):\n", sims);
  score.expect("single reuse, sampled, glitch model", false,
               benchutil::run_kronecker(
                   gadgets::RandomnessPlan::kron1_single_reuse_r1r3(),
                   eval::ProbeModel::kGlitch, sims, 1, 2,
                   staging.with_suffix("single")));
  score.expect("pair reuse, sampled, glitch model", false,
               benchutil::run_kronecker(gadgets::RandomnessPlan::kron1_pair_reuse(),
                                        eval::ProbeModel::kGlitch, sims, 1, 2,
                                        staging.with_suffix("pair")));
  return score.exit_code();
}
