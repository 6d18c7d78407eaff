#include "src/stats/ttest.hpp"

#include <cmath>

namespace sca::stats {

void MomentAccumulator::add(double sample) {
  ++n_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (sample - mean_);
}

void MomentAccumulator::add_weighted(double sample, std::uint64_t count) {
  if (count == 0) return;
  if (n_ == 0) {
    // A run of equal samples has mean == sample and M2 == 0 exactly.
    n_ = count;
    mean_ = sample;
    m2_ = 0.0;
    return;
  }
  const double delta = sample - mean_;
  const double total = static_cast<double>(n_ + count);
  m2_ += delta * delta * static_cast<double>(n_) *
         static_cast<double>(count) / total;
  mean_ += delta * static_cast<double>(count) / total;
  n_ += count;
}

void MomentAccumulator::add_weighted_histogram(const std::uint64_t* counts,
                                               std::size_t n) {
  for (std::size_t v = 0; v < n; ++v)
    if (counts[v]) add_weighted(static_cast<double>(v), counts[v]);
}

double MomentAccumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

TTestResult welch_t_test(const MomentAccumulator& fixed,
                         const MomentAccumulator& random) {
  TTestResult result;
  result.n_fixed = fixed.count();
  result.n_random = random.count();
  if (fixed.count() < 2 || random.count() < 2) return result;

  const double vf = fixed.variance() / static_cast<double>(fixed.count());
  const double vr = random.variance() / static_cast<double>(random.count());
  const double denom = vf + vr;
  if (denom <= 0.0) return result;  // both constant; equal means -> t = 0

  result.t = (fixed.mean() - random.mean()) / std::sqrt(denom);
  const double num = denom * denom;
  const double df_denom =
      vf * vf / static_cast<double>(fixed.count() - 1) +
      vr * vr / static_cast<double>(random.count() - 1);
  result.degrees_of_freedom = df_denom > 0.0 ? num / df_denom : 0.0;
  return result;
}

}  // namespace sca::stats
