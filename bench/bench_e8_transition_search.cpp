// Experiment E8 (Section IV): "when we expand the evaluation to consider
// transitions [...] none of the optimizations discussed above can maintain
// security [...] By means of trial and error, we found four solutions [...]
// r1..r6 fresh, r7 = r_i for all i in {1, 2, 3, 4}".
//
// Reproduce mechanically: run the paper's search space (r7 reusing each of
// r1..r6, plus the fully fresh baseline) through the glitch+transition
// campaign, and confirm Eq. (9) itself fails under this model.

#include <set>
#include <string>

#include "bench/bench_util.hpp"
#include "src/core/search.hpp"

using namespace sca;

int main(int argc, char** argv) {
  const benchutil::Staging staging = benchutil::parse_staging(argc, argv);
  const std::size_t sims = benchutil::simulations(150000);
  benchutil::Scorecard score("e8_transition_search");

  std::printf("E8: transition-extended probing — Eq.(9) breaks, search for "
              "surviving reuse\n\n");

  const eval::CampaignResult eq9 = benchutil::run_kronecker(
      gadgets::RandomnessPlan::kron1_proposed_eq9(),
      eval::ProbeModel::kGlitchTransition, sims, 1, 2, staging);
  score.expect("Eq.(9) under glitch+transition model", false, eq9);
  benchutil::lint_check(
      score, staging,
      benchutil::kronecker_netlist(gadgets::RandomnessPlan::kron1_proposed_eq9()),
      eval::ProbeModel::kGlitchTransition, "",
      "linter flags Eq.(9) under the transition rules (R4)",
      /*expect_flagged=*/true);

  eval::SearchOptions options;
  options.model = eval::ProbeModel::kGlitchTransition;
  options.simulations = sims;
  const eval::SearchResult search = eval::search_r7_reuse(options);

  std::printf("\nsearch over r7 reuse (r1..r6 fresh):\n");
  std::printf("  plan                                  fresh  verdict  severity\n");
  for (const auto& e : search.evaluations)
    std::printf("  %-36s  %zu      %-7s  %.1f\n", e.plan.name().c_str(),
                e.plan.fresh_count(), e.secure ? "SECURE" : "LEAKS",
                e.severity);

  // The paper's four solutions: r7 = r1..r4 pass; r7 = r5, r6 fail.
  score.expect_flag("baseline (7 fresh) secure", true,
                    search.evaluations[0].secure);
  for (int i = 1; i <= 4; ++i)
    score.expect_flag(
        common::make_name("r7 = r", i, " secure (solution ", i, "/4)"), true,
        search.evaluations[i].secure);
  score.expect_flag("r7 = r5 leaks", true, !search.evaluations[5].secure);
  score.expect_flag("r7 = r6 leaks", true, !search.evaluations[6].secure);
  score.expect_flag("minimum fresh bits under transitions = 6", true,
                    search.min_secure_fresh() == 6);

  // Same search with the static linter as a pre-filter: flagged candidates
  // never reach the sampler, and the secure-plan set must be unchanged.
  eval::SearchOptions filtered_options = options;
  filtered_options.lint_prefilter = true;
  const eval::SearchResult filtered = eval::search_r7_reuse(filtered_options);
  std::printf("\nlint pre-filter: %zu of %zu candidates rejected statically, "
              "%zu sampled\n",
              filtered.lint_rejected, filtered.evaluations.size(),
              filtered.expensive_evaluations);
  const auto secure_names = [](const eval::SearchResult& r) {
    std::set<std::string> names;
    for (const eval::PlanEvaluation* e : r.secure_plans())
      names.insert(e->plan.name());
    return names;
  };
  score.expect_flag("pre-filtered search keeps the identical secure set",
                    true, secure_names(filtered) == secure_names(search));
  score.expect_flag("pre-filter removes candidates before sampling", true,
                    filtered.expensive_evaluations <
                        filtered.evaluations.size());
  score.note("lint_rejected", filtered.lint_rejected);
  score.note("expensive_evaluations", filtered.expensive_evaluations);
  return score.exit_code();
}
