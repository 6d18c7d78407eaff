// Experiment E9 (Section IV): the second-order masked Sbox of [12] "with an
// optimization technique to reduce the number of fresh masks from 21 to 13
// bits. [...] None of our analyses by PROLEAD (considering both glitches and
// transitions) up to second order and using at least 100 million simulations
// revealed any vulnerability."
//
// The exact 13-slot wiring of [12] is not printed in the paper under
// reproduction, so this bench reproduces the evaluation *protocol* and the
// qualitative shape (see EXPERIMENTS.md):
//   (a) the unoptimized second-order Kronecker (21 fresh bits) passes at
//       orders 1 and 2 under glitch+transition probing;
//   (b) our reduced-randomness reconstruction passes the same evaluation;
//   (c) a naive 21 -> 13 slot-sharing plan — secure-looking at first order
//       under the glitch model — is *caught* by the order-2 evaluation,
//       which is precisely the paper's "use evaluation tools" message.
//
// Order-2 campaigns enumerate ~30k probe pairs; the default budget is
// laptop-scale (paper: 100M simulations — set SCA_SIMS to approach it).

#include "bench/bench_util.hpp"
#include "src/core/search.hpp"

using namespace sca;

int main(int argc, char** argv) {
  // --family13-only: skip the [a]-[d] campaigns and run just the family
  // sweep window of [e] (implies --lint-order2) — the CI forced-resume job
  // interrupts and resumes the sweep without paying for the campaigns.
  bool family13_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--family13-only")
      family13_only = true;
    else
      args.push_back(argv[i]);
  }
  benchutil::Staging staging =
      benchutil::parse_staging(static_cast<int>(args.size()), args.data());
  if (family13_only) staging.lint = staging.lint_order2 = true;
  const std::size_t sims1 = benchutil::simulations(80000);
  const std::size_t sims2 = std::max<std::size_t>(benchutil::simulations(30000) / 2, 20000);
  benchutil::Scorecard score("e9_second_order");
  score.note("sims_order1", sims1);
  score.note("sims_order2", sims2);

  std::printf("E9: second-order Kronecker delta (3 shares), glitch+transition\n");
  std::printf("    order-1 budget %zu, order-2 budget %zu (SCA_SIMS scales)\n\n",
              sims1, sims2);

  if (!family13_only) {
  const auto full = gadgets::RandomnessPlan::kron2_full_fresh();
  // Single-probe lint vouches for the order-1 claims; with --lint-order2 the
  // pair-probe lint additionally proves/refutes the order-2 claims the
  // sampling below can only estimate.
  benchutil::lint_check(score, staging,
                        benchutil::kronecker_netlist(full, 3),
                        eval::ProbeModel::kGlitchTransition, "",
                        "linter clears the 3-share Kronecker at order 1",
                        /*expect_flagged=*/false);
  benchutil::lint_check(score, staging,
                        benchutil::kronecker_netlist(full, 3),
                        eval::ProbeModel::kGlitchTransition, "",
                        "pair-probe linter clears the unoptimized plan",
                        /*expect_flagged=*/false, "lint2_full", /*order=*/2);

  std::printf("[a] unoptimized, %zu fresh bits\n", full.fresh_count());
  score.expect("order 1", true,
               benchutil::run_kronecker(full, eval::ProbeModel::kGlitchTransition,
                                        sims1, 1, 3,
                                        staging.with_suffix("full_o1")));
  score.expect("order 2", true,
               benchutil::run_kronecker(full, eval::ProbeModel::kGlitchTransition,
                                        sims2, 2, 3,
                                        staging.with_suffix("full_o2")));

  const auto reduced = gadgets::RandomnessPlan::kron2_reduced();
  std::printf("\n[b] reduced reconstruction, %zu fresh bits (%s)\n",
              reduced.fresh_count(), reduced.name().c_str());
  benchutil::lint_check(score, staging,
                        benchutil::kronecker_netlist(reduced, 3),
                        eval::ProbeModel::kGlitchTransition, "",
                        "pair-probe linter clears the reduced plan",
                        /*expect_flagged=*/false, "lint2_reduced",
                        /*order=*/2);
  score.expect("order 1", true,
               benchutil::run_kronecker(reduced,
                                        eval::ProbeModel::kGlitchTransition,
                                        sims1, 1, 3,
                                        staging.with_suffix("reduced_o1")));
  score.expect("order 2", true,
               benchutil::run_kronecker(reduced,
                                        eval::ProbeModel::kGlitchTransition,
                                        sims2, 2, 3,
                                        staging.with_suffix("reduced_o2")));

  const auto naive = gadgets::RandomnessPlan::kron2_naive13();
  std::printf("\n[c] naive 13-bit slot sharing — the cautionary tale\n");
  benchutil::lint_check(score, staging,
                        benchutil::kronecker_netlist(naive, 3),
                        eval::ProbeModel::kGlitch, "",
                        "pair-probe linter catches the naive 13-bit plan",
                        /*expect_flagged=*/true, "lint2_naive", /*order=*/2);
  const auto naive_o1 = benchutil::run_kronecker(
      naive, eval::ProbeModel::kGlitch, sims1, 1, 3,
      staging.with_suffix("naive_o1"));
  score.expect("passes order 1 under the glitch-only model", true, naive_o1);
  const auto naive_o2 = benchutil::run_kronecker(
      naive, eval::ProbeModel::kGlitch, sims2, 2, 3,
      staging.with_suffix("naive_o2"));
  score.expect("caught at order 2", false, naive_o2);
  if (!naive_o2.pass)
    std::printf("  order-2 leak at: %s (-log10 p = %.1f)\n",
                naive_o2.results.front().name.c_str(),
                naive_o2.results.front().minus_log10_p);

  // [d] The broken 18-bit reduction this repo shipped before the pair-probe
  // lint existed: sampling at the default budget is a FALSE NEGATIVE (the
  // bias is ~0.2%, visible only from ~200k simulations — see
  // EXPERIMENTS.md), while the linter flags the exact leaking pair sets
  // statically. The expectation is on the lint verdict; the campaign runs
  // for the record and is only *expected* to catch the leak once the
  // budget reaches paper scale.
  const auto leaky = gadgets::RandomnessPlan::kron2_reduced_leaky();
  std::printf("\n[d] broken 18-bit reduction (%s) — why lint earns its keep\n",
              leaky.name().c_str());
  benchutil::lint_check(score, staging,
                        benchutil::kronecker_netlist(leaky, 3),
                        eval::ProbeModel::kGlitchTransition, "",
                        "pair-probe linter catches the broken 18-bit plan",
                        /*expect_flagged=*/true, "lint2_leaky", /*order=*/2);
  const auto leaky_o2 = benchutil::run_kronecker(
      leaky, eval::ProbeModel::kGlitchTransition, sims2, 2, 3,
      staging.with_suffix("leaky_o2"));
  score.note("leaky_o2_max_minus_log10_p",
             static_cast<std::size_t>(leaky_o2.max_minus_log10_p * 100));
  if (sims2 >= 200000)
    score.expect("broken reduction caught at order 2 (paper-scale budget)",
                 false, leaky_o2);
  else
    std::printf("  order-2 campaign at %zu sims: max -log10 p = %.2f "
                "(needs ~200k to cross the threshold)\n",
                sims2, leaky_o2.max_minus_log10_p);
  }

  // [e] Lint as a search pre-filter: a window of the 13-bit family around
  // the naive plan, statically triaged before any sampling. With
  // --lint-order2 this demonstrates the sharded sweep entry point that
  // tests/checkpoint_test.cpp exercises with forced resume.
  if (staging.lint_order2) {
    const std::uint64_t anchor = eval::kron2_family13_naive_index();
    eval::SecondOrderSearchOptions so;
    so.begin = anchor;
    so.end = anchor + 8;
    so.chunk = 4;
    so.simulations = std::max<std::size_t>(sims2 / 8, 2000);
    // The staging flags drive the sweep's shard grid the way they drive
    // staged campaigns: --checkpoint/--stop-after-stage/--resume interrupt
    // and resume at chunk boundaries (the CI forced-resume job diffs the
    // family13 digest line of a resumed run against an uninterrupted one).
    if (!staging.checkpoint.empty())
      so.checkpoint_path = staging.checkpoint + ".family13";
    so.resume = staging.resume;
    so.stop_after_chunks = staging.stop_after_stage;
    std::printf("\n[e] family sweep window [%llu, %llu) of %llu candidates\n",
                static_cast<unsigned long long>(so.begin),
                static_cast<unsigned long long>(so.end),
                static_cast<unsigned long long>(eval::kron2_family13_size()));
    const auto sweep = eval::search_kron2_family13(so);
    std::printf("  lint rejected %zu/%zu statically; %zu sampled; "
                "chunks %zu/%zu\n",
                sweep.lint_rejected, sweep.evaluations.size(),
                sweep.expensive_evaluations, sweep.chunks_done,
                sweep.chunks_total);
    if (sweep.complete) {
      std::string secure;
      for (const std::uint64_t idx : sweep.secure_indices())
        secure += common::make_name(" ", idx);
      std::printf("family13: rejected=%zu sampled=%zu secure=[%s ]\n",
                  sweep.lint_rejected, sweep.expensive_evaluations,
                  secure.c_str());
      score.expect_flag("naive plan statically rejected in the family sweep",
                        true, sweep.evaluations.front().lint_rejected);
    }
    score.note("family_window_lint_rejected", sweep.lint_rejected);
    score.note("family_window_sampled", sweep.expensive_evaluations);
  }
  return score.exit_code();
}
