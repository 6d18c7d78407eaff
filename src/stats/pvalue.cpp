#include "src/stats/pvalue.hpp"

#include <math.h>  // lgamma_r

#include <cmath>
#include <limits>

#include "src/common/check.hpp"

namespace sca::stats {

namespace {

// log Gamma(a) for a > 0. std::lgamma also stores the sign of Gamma(a) in
// the global `signgam`, a data race when campaign workers finalize p-values
// concurrently; lgamma_r returns the same value without touching it.
double log_gamma(double a) {
  int sign = 0;
  return lgamma_r(a, &sign);
}

// Log of Q(a, x) via the Lentz continued fraction, valid for x > a + 1.
double log_gamma_q_cf(double a, double x) {
  constexpr int kMaxIter = 1000;
  constexpr double kEps = 1e-15;
  constexpr double kTiny = 1e-300;

  // CF for Gamma(a, x) * e^x * x^(-a):   1/(x+1-a- 1*(1-a)/(x+3-a- ...)).
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return -x + a * std::log(x) - log_gamma(a) + std::log(h);
}

// Log of P(a, x) via the power series, valid for x < a + 1; the caller
// converts to Q.
double log_gamma_p_series(double a, double x) {
  constexpr int kMaxIter = 10000;
  constexpr double kEps = 1e-16;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return -x + a * std::log(x) - log_gamma(a) + std::log(sum);
}

}  // namespace

double log_gamma_q(double a, double x) {
  common::require(a > 0.0 && x >= 0.0, "log_gamma_q: requires a > 0, x >= 0");
  if (x == 0.0) return 0.0;  // Q(a, 0) = 1
  if (x > a + 1.0) return log_gamma_q_cf(a, x);
  // Q = 1 - P; P is small only when x << a, where the series is accurate and
  // log1p keeps precision.
  const double log_p = log_gamma_p_series(a, x);
  const double p = std::exp(log_p);
  if (p >= 1.0) return -std::numeric_limits<double>::infinity();
  return std::log1p(-p);
}

double chi2_log_sf(double x, std::size_t df) {
  common::require(df > 0, "chi2_log_sf: df must be positive");
  if (x <= 0.0) return 0.0;
  return log_gamma_q(static_cast<double>(df) / 2.0, x / 2.0);
}

double chi2_minus_log10_p(double x, std::size_t df) {
  return -chi2_log_sf(x, df) / std::log(10.0);
}

}  // namespace sca::stats
