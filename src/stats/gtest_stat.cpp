#include "src/stats/gtest_stat.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/serialize.hpp"
#include "src/stats/pvalue.hpp"

namespace sca::stats {

GTestResult g_test_columns(
    const std::vector<std::array<std::uint64_t, 2>>& cols,
    double min_expected) {
  GTestResult result;
  std::uint64_t n0 = 0, n1 = 0;
  for (const auto& c : cols) {
    n0 += c[0];
    n1 += c[1];
  }
  result.n_fixed = n0;
  result.n_random = n1;
  const double n = static_cast<double>(n0 + n1);
  if (n0 == 0 || n1 == 0 || cols.size() < 2) {
    // One group empty or a single bin: no evidence of dependence.
    result.bins = cols.size();
    result.df = 0;
    result.minus_log10_p = 0.0;
    return result;
  }

  // Pool low-expectation columns into one residual column so the chi-squared
  // null stays a good approximation for the G statistic.
  std::vector<std::array<std::uint64_t, 2>> pooled;
  std::array<std::uint64_t, 2> residual{0, 0};
  bool residual_used = false;
  for (const auto& c : cols) {
    const double col_total = static_cast<double>(c[0] + c[1]);
    const double min_exp_in_col =
        col_total * static_cast<double>(std::min(n0, n1)) / n;
    if (min_exp_in_col < min_expected) {
      residual[0] += c[0];
      residual[1] += c[1];
      residual_used = true;
    } else {
      pooled.push_back(c);
    }
  }
  if (residual_used) pooled.push_back(residual);

  result.bins = pooled.size();
  if (pooled.size() < 2) {
    result.df = 0;
    result.minus_log10_p = 0.0;
    return result;
  }

  double g = 0.0;
  double sum_inv_col = 0.0;
  for (const auto& c : pooled) {
    const double col_total = static_cast<double>(c[0] + c[1]);
    sum_inv_col += 1.0 / col_total;
    const double e0 = col_total * static_cast<double>(n0) / n;
    const double e1 = col_total * static_cast<double>(n1) / n;
    if (c[0] > 0) g += static_cast<double>(c[0]) *
                       std::log(static_cast<double>(c[0]) / e0);
    if (c[1] > 0) g += static_cast<double>(c[1]) *
                       std::log(static_cast<double>(c[1]) / e1);
  }
  g *= 2.0;
  if (g < 0.0) g = 0.0;  // guard tiny negative rounding noise

  // Williams correction: with many sparse columns (expected counts near the
  // pooling threshold) the raw G statistic is biased a few percent above its
  // chi-squared null, which at tens of thousands of degrees of freedom is
  // enough to cross any fixed significance threshold. The correction removes
  // that bias and is negligible (q ~ 1) for the gross leaks we care about.
  const double df = static_cast<double>(pooled.size() - 1);
  const double row_term =
      n * (1.0 / static_cast<double>(n0) + 1.0 / static_cast<double>(n1)) - 1.0;
  const double col_term = n * sum_inv_col - 1.0;
  const double q = 1.0 + row_term * col_term / (6.0 * n * df);
  if (q > 1.0) g /= q;

  result.g = g;
  result.df = pooled.size() - 1;
  result.minus_log10_p = chi2_minus_log10_p(g, result.df);
  return result;
}

// --- FlatCountTable -----------------------------------------------------------

FlatCountTable::FlatCountTable(unsigned key_bits)
    : key_bits_(key_bits), counts_(std::size_t{2} << key_bits, 0) {
  SCA_ASSERT(key_bits <= kMaxKeyBits, "FlatCountTable: key space too large");
}

void FlatCountTable::add(std::uint64_t key, int group, std::uint64_t count) {
  SCA_ASSERT(group == 0 || group == 1, "FlatCountTable: group must be 0/1");
  SCA_ASSERT(key < counts_.size() / 2,
             "FlatCountTable: key outside the key space");
  counts_[2 * static_cast<std::size_t>(key) +
          static_cast<std::size_t>(group)] += count;
}

void FlatCountTable::merge(const FlatCountTable& other) {
  SCA_ASSERT(other.counts_.size() == counts_.size(),
             "FlatCountTable: merge across key spaces");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

void FlatCountTable::add_marginalized(const FlatCountTable& host,
                                      std::uint64_t key_mask) {
  SCA_ASSERT(!counts_.empty() &&
                 common::popcount64(key_mask) == static_cast<int>(key_bits_),
             "FlatCountTable: key mask width mismatch");
  SCA_ASSERT(key_mask < host.counts_.size() / 2,
             "FlatCountTable: key mask outside the host key space");
  for (std::size_t key = 0; key < host.counts_.size() / 2; ++key) {
    const std::uint64_t c0 = host.counts_[2 * key];
    const std::uint64_t c1 = host.counts_[2 * key + 1];
    if (c0 == 0 && c1 == 0) continue;
    const std::size_t idx = static_cast<std::size_t>(
        common::extract_bits64(static_cast<std::uint64_t>(key), key_mask));
    counts_[2 * idx] += c0;
    counts_[2 * idx + 1] += c1;
  }
}

GTestResult FlatCountTable::g_test(double min_expected) const {
  std::vector<std::array<std::uint64_t, 2>> cols;
  for (std::size_t i = 0; i < counts_.size(); i += 2)
    if (counts_[i] || counts_[i + 1])
      cols.push_back({counts_[i], counts_[i + 1]});
  return g_test_columns(cols, min_expected);
}

std::size_t FlatCountTable::bin_count() const {
  std::size_t bins = 0;
  for (std::size_t i = 0; i < counts_.size(); i += 2)
    if (counts_[i] || counts_[i + 1]) ++bins;
  return bins;
}

std::array<std::uint64_t, 2> FlatCountTable::counts_for(
    std::uint64_t key) const {
  if (key >= counts_.size() / 2) return {0, 0};
  const auto i = 2 * static_cast<std::size_t>(key);
  return {counts_[i], counts_[i + 1]};
}

std::uint64_t FlatCountTable::group_total(int group) const {
  SCA_ASSERT(group == 0 || group == 1, "FlatCountTable: group must be 0/1");
  std::uint64_t total = 0;
  for (std::size_t i = static_cast<std::size_t>(group); i < counts_.size();
       i += 2)
    total += counts_[i];
  return total;
}

void FlatCountTable::clear() { std::fill(counts_.begin(), counts_.end(), 0); }

void FlatCountTable::serialize(std::ostream& os) const {
  common::write_u8(os, static_cast<std::uint8_t>(key_bits_));
  common::write_u64(os, bin_count());
  for (std::size_t key = 0; key < counts_.size() / 2; ++key) {
    if (!counts_[2 * key] && !counts_[2 * key + 1]) continue;
    common::write_u64(os, key);
    common::write_u64(os, counts_[2 * key]);
    common::write_u64(os, counts_[2 * key + 1]);
  }
}

FlatCountTable FlatCountTable::deserialize(std::istream& is) {
  const unsigned key_bits = common::read_u8(is);
  common::require(key_bits <= kMaxKeyBits,
                  "FlatCountTable: snapshot key space too large");
  const std::uint64_t space = std::uint64_t{1} << key_bits;
  const std::uint64_t nkeys = common::read_u64(is);
  common::require(nkeys <= space, "FlatCountTable: snapshot overfull");
  FlatCountTable table(key_bits);
  // Strictly ascending keys, each with a nonzero count: the canonical
  // stream serialize() writes, so no key can be stored twice.
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    const std::uint64_t key = common::read_u64(is);
    common::require(key < space,
                    "FlatCountTable: snapshot key outside the key space");
    common::require(i == 0 || key > prev_key,
                    "FlatCountTable: snapshot keys not strictly ascending");
    prev_key = key;
    const auto slot = 2 * static_cast<std::size_t>(key);
    table.counts_[slot] = common::read_u64(is);
    table.counts_[slot + 1] = common::read_u64(is);
    common::require(table.counts_[slot] || table.counts_[slot + 1],
                    "FlatCountTable: snapshot stores an empty bin");
  }
  return table;
}

GTestResult g_test_two_rows(const std::vector<std::uint64_t>& row_fixed,
                            const std::vector<std::uint64_t>& row_random,
                            double min_expected) {
  common::require(row_fixed.size() == row_random.size(),
                  "g_test_two_rows: row length mismatch");
  std::vector<std::array<std::uint64_t, 2>> cols;
  cols.reserve(row_fixed.size());
  for (std::size_t i = 0; i < row_fixed.size(); ++i) {
    if (row_fixed[i] == 0 && row_random[i] == 0) continue;
    cols.push_back({row_fixed[i], row_random[i]});
  }
  return g_test_columns(cols, min_expected);
}

}  // namespace sca::stats
