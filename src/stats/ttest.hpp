// Welch's t-test on streaming samples — the TVLA methodology of Schneider &
// Moradi ("Leakage assessment methodology", the paper's reference [19]).
//
// Where the G-test compares full observation distributions, the t-test
// compares group means of a scalar statistic (classically the Hamming weight
// of an observation, standing in for instantaneous power). The standard
// leakage threshold is |t| > 4.5. A second-order variant runs the same test
// on centered squared samples.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sca::stats {

/// Streaming mean/variance accumulator (Welford's algorithm).
class MomentAccumulator {
 public:
  void add(double sample);

  /// Adds `count` identical samples in one step — one step per histogram
  /// bin instead of one add() per sample. Exactly equivalent to merging an
  /// accumulator holding `count` copies of `sample` (whose mean is `sample`
  /// and whose M2 is 0, both exactly), so it is bit-identical to add()
  /// called `count` times in a row on a fresh accumulator, and
  /// deterministic for any (histogram-ordered) call sequence.
  void add_weighted(double sample, std::uint64_t count);

  /// Folds a whole integer histogram — counts[i] samples of value i — in
  /// ascending-value order: exactly counts-nonzero add_weighted calls, so
  /// the FP operation sequence (and hence the t statistic) is a pure
  /// function of the histogram contents. The campaign keeps its t-test
  /// state as integer Hamming-weight histograms and folds them through
  /// this only when a t value is needed.
  void add_weighted_histogram(const std::uint64_t* counts, std::size_t n);

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

struct TTestResult {
  double t = 0.0;                 ///< Welch's t statistic
  double degrees_of_freedom = 0;  ///< Welch-Satterthwaite approximation
  std::uint64_t n_fixed = 0;
  std::uint64_t n_random = 0;
};

/// Welch's two-sample t-test between the groups' accumulated moments.
/// Degenerate inputs (an empty group, zero variance in both groups with
/// equal means) give t = 0.
TTestResult welch_t_test(const MomentAccumulator& fixed,
                         const MomentAccumulator& random);

/// The TVLA leakage threshold.
inline constexpr double kTvlaThreshold = 4.5;

}  // namespace sca::stats
