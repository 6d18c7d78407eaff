// Scalar reference campaign for the equivalence tests: the production
// probe-set preparation, input feed and sample producer
// (src/core/campaign_parts.hpp) on one interpreted 64-lane simulator
// (tests/reference_simulator.hpp, never the sim tape), with
// every set's key computed per lane in scalar code — exact observation
// bits, the (hn << w) | hp weight pair of a compacted set, or the Hamming
// weight for the t-test. No chunk grid, batches, hosting, stages or
// compiled plan: whatever the production engine adds beyond producing
// samples must reproduce these counts, and so these statistics, exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/bitops.hpp"
#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/core/campaign_parts.hpp"
#include "src/netlist/ir.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/stats/ttest.hpp"
#include "tests/reference_simulator.hpp"

namespace sca::testutil {

// One probe set of the reference run: its key space and its statistic.
struct ReferenceSet {
  std::string name;
  bool compacted = false;
  unsigned key_bits = 0;
  stats::GTestResult g;  // G-test campaigns
  stats::TTestResult t;  // t-test campaigns
  double severity = 0.0;
};

// Runs the campaign `options` describes (model, order, statistic, budget,
// seed, scope, fixed values, nonzero buses, sampling) and ignores its
// execution knobs: threads, lanes, stages, checkpoints, table budget.
// Returns the sets in evaluation order. Every run's samples are kept; then
// one set at a time is counted over all of them, finalized and its table
// freed, so one count table is resident at a time.
inline std::vector<ReferenceSet> reference_campaign(
    const netlist::Netlist& nl, const eval::CampaignOptions& options) {
  namespace d = eval::detail;
  const bool transitions =
      options.model == eval::ProbeModel::kGlitchTransition;
  const bool ttest = options.statistic == eval::Statistic::kWelchTTest;
  const d::PreparedSets prepared = d::prepare_probe_sets(nl, options);
  const d::InputFeeder feeder(nl, options);
  ReferenceSimulator simulator(nl);
  const common::CounterPrg prg(options.seed);

  const std::size_t runs = common::ceil_div(
      std::max<std::size_t>(options.simulations, 64),
      64 * feeder.samples_per_run);
  std::vector<d::Sample> samples, run_samples;
  for (std::size_t run = 0; run < runs; ++run) {
    // Every stable point is a row, so row r is stable point r.
    d::produce_samples(simulator, feeder, prg, run, /*active=*/1,
                       transitions, prepared.stable_points, run_samples);
    samples.insert(samples.end(), run_samples.begin(), run_samples.end());
  }

  std::vector<ReferenceSet> out;
  out.reserve(prepared.sets.size());
  for (const d::PreparedSet& p : prepared.sets) {
    ReferenceSet r{p.name, p.compacted, d::table_key_bits(p, transitions, ttest),
                   {}, {}, 0.0};
    stats::FlatCountTable table(r.key_bits);
    const std::vector<std::size_t>& rows = p.dense;
    const unsigned hw_shift = d::hp_bits(rows.size(), transitions);
    for (const d::Sample& s : samples) {
      for (unsigned lane = 0; lane < 64; ++lane) {
        std::uint64_t now_bits = 0, prev_bits = 0;
        unsigned hn = 0, hp = 0;
        for (std::size_t k = 0; k < rows.size(); ++k) {
          const std::uint64_t n = (s.now[rows[k]] >> lane) & 1u;
          const std::uint64_t v =
              transitions ? (s.prev[rows[k]] >> lane) & 1u : 0;
          now_bits |= n << k;
          prev_bits |= v << k;
          hn += static_cast<unsigned>(n);
          hp += static_cast<unsigned>(v);
        }
        std::uint64_t key;
        if (ttest)
          key = hn + hp;
        else if (r.compacted)
          key = (std::uint64_t{hn} << hw_shift) | hp;
        else
          key = now_bits | (prev_bits << rows.size());
        table.add(key, s.group);
      }
    }
    if (ttest) {
      r.t = d::hw_t_test(table);
      r.severity = std::abs(r.t.t);
    } else {
      r.g = table.g_test();
      r.severity = r.g.minus_log10_p;
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Every way `result` differs from the reference run: a set missing on
// either side, a different compaction, or any statistic that is not
// bit-identical. Empty = identical. gtest-free, like cert_replay.hpp.
inline std::vector<std::string> reference_mismatches(
    const eval::CampaignResult& result,
    const std::vector<ReferenceSet>& reference) {
  std::vector<std::string> problems;
  std::map<std::string, const ReferenceSet*> by_name;
  double max_severity = 0.0;
  for (const ReferenceSet& r : reference) {
    by_name[r.name] = &r;
    max_severity = std::max(max_severity, r.severity);
  }
  if (result.results.size() != reference.size())
    problems.push_back("set count " + std::to_string(result.results.size()) +
                       " vs reference " + std::to_string(reference.size()));
  if (result.max_minus_log10_p != max_severity)
    problems.push_back("worst severity differs from the reference");
  const auto differ = [&](const std::string& name, const char* what) {
    problems.push_back(name + ": " + what + " differs from the reference");
  };
  for (const eval::ProbeSetResult& r : result.results) {
    const auto it = by_name.find(r.name);
    if (it == by_name.end()) {
      problems.push_back(r.name + ": not in the reference");
      continue;
    }
    const ReferenceSet& ref = *it->second;
    if (r.compacted != ref.compacted) differ(r.name, "compaction");
    if (r.severity != ref.severity) differ(r.name, "severity");
    if (result.statistic == eval::Statistic::kWelchTTest) {
      if (r.t.t != ref.t.t) differ(r.name, "t");
      if (r.t.n_fixed != ref.t.n_fixed || r.t.n_random != ref.t.n_random)
        differ(r.name, "t-test group size");
    } else {
      if (r.g.g != ref.g.g) differ(r.name, "G");
      if (r.g.minus_log10_p != ref.g.minus_log10_p) differ(r.name, "-log10 p");
      if (r.g.df != ref.g.df || r.g.bins != ref.g.bins)
        differ(r.name, "df or bins");
      if (r.g.n_fixed != ref.g.n_fixed || r.g.n_random != ref.g.n_random)
        differ(r.name, "G-test group size");
    }
  }
  return problems;
}

// The problems joined one per line, for a test failure message.
inline std::string joined(const std::vector<std::string>& problems) {
  std::string out;
  for (const std::string& p : problems) out += p + "\n";
  return out;
}

}  // namespace sca::testutil
