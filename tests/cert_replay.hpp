// Shared certificate-replay helper for the lint test suites: replays one
// finding's counterexample certificate through verif::exact and reports
// every way it fails to be a real distinguisher.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/lint/linter.hpp"
#include "src/verif/exact.hpp"

namespace sca::testutil {

// Replays one finding's certificate through the caller's exact engine
// (built on the linted netlist with the replay's options) and collects
// every way it fails to be a real distinguisher: the two secret values
// must induce different distributions and the chosen observation must
// separate them with exactly the recorded counts. Returns human-readable
// problems (empty = valid certificate); gtest-free so it can run on worker
// threads.
inline std::vector<std::string> certificate_problems(
    const verif::ProbeDistributionEngine& engine, const lint::LintFinding& f) {
  std::vector<std::string> problems;
  const auto fail = [&](const std::string& what) {
    problems.push_back(f.message + " — " + what);
  };
  if (!f.certificate.has_value()) return {f.message + " — no certificate"};
  const lint::LintCertificate& cert = *f.certificate;
  if (!cert.available) return {f.message + " — " + cert.unavailable_reason};
  if (cert.tv_distance <= 0.0) fail("zero tv distance");
  if (cert.count_a <= cert.count_b) fail("counts do not separate");
  if (cert.assignment.empty()) fail("no witness assignment");

  const verif::ProbeDistribution dist = engine.distribution(f.probe);
  if (!dist.feasible) return {f.message + " — " + dist.infeasible_reason};
  if (cert.secret_a >= dist.rows() || cert.secret_b >= dist.rows() ||
      cert.observation >= (std::uint64_t{1} << dist.observation.size()))
    return {f.message + " — certificate outside the replayed distribution"};
  const auto row_a = dist.row(cert.secret_a);
  const auto row_b = dist.row(cert.secret_b);
  if (std::equal(row_a.begin(), row_a.end(), row_b.begin()))
    fail("distributions are identical on replay");
  if (row_a[cert.observation] != cert.count_a) fail("count_a does not replay");
  if (row_b[cert.observation] != cert.count_b) fail("count_b does not replay");
  return problems;
}

}  // namespace sca::testutil
