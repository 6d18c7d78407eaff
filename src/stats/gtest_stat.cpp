#include "src/stats/gtest_stat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

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

CarryCountTable::CarryCountTable(unsigned key_bits)
    : counts_(std::size_t{2} << key_bits, 0) {
  SCA_ASSERT(key_bits <= FlatCountTable::kMaxKeyBits,
             "CarryCountTable: key space too large");
}

void CarryCountTable::add_to(FlatCountTable& master) const {
  SCA_ASSERT(counts_.size() == master.counts_.size(),
             "CarryCountTable: merge across key spaces");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    master.counts_[i] += counts_[i];
  for (std::uint32_t entry : carries_)
    master.counts_[entry] += std::uint64_t{1} << 16;
}

namespace {

// Counts travel little-endian at `width` bytes; on a little-endian host
// both directions are a plain narrowing or widening copy.
template <typename T>
void store_counts(const std::uint64_t* src, std::size_t n, char* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::endian::native == std::endian::little) {
      const T v = static_cast<T>(src[i]);
      std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
    } else {
      for (std::size_t b = 0; b < sizeof(T); ++b)
        dst[i * sizeof(T) + b] = static_cast<char>((src[i] >> (8 * b)) & 0xFF);
    }
  }
}

template <typename T>
void load_counts(const char* src, std::size_t n, std::uint64_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::endian::native == std::endian::little) {
      T v;
      std::memcpy(&v, src + i * sizeof(T), sizeof(T));
      dst[i] = v;
    } else {
      std::uint64_t v = 0;
      for (std::size_t b = 0; b < sizeof(T); ++b)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(src[i * sizeof(T) + b]))
             << (8 * b);
      dst[i] = v;
    }
  }
}

unsigned width_of(std::uint64_t max_count) {
  if (max_count <= 0xFF) return 1;
  if (max_count <= 0xFFFF) return 2;
  if (max_count <= 0xFFFFFFFF) return 4;
  return 8;
}

}  // namespace

unsigned FlatCountTable::count_width() const {
  return width_of(counts_.empty()
                      ? 0
                      : *std::max_element(counts_.begin(), counts_.end()));
}

std::size_t FlatCountTable::encoded_size() const {
  return 2 + counts_.size() * count_width();
}

void FlatCountTable::encode(std::string& out) const {
  SCA_ASSERT(counts_.size() == std::size_t{2} << key_bits_,
             "FlatCountTable: encoding a placeholder table");
  const unsigned width = count_width();
  common::put_u8(out, static_cast<std::uint8_t>(key_bits_));
  common::put_u8(out, static_cast<std::uint8_t>(width));
  const std::size_t at = out.size();
  out.resize(at + counts_.size() * width);
  char* dst = out.data() + at;
  switch (width) {
    case 1:
      store_counts<std::uint8_t>(counts_.data(), counts_.size(), dst);
      break;
    case 2:
      store_counts<std::uint16_t>(counts_.data(), counts_.size(), dst);
      break;
    case 4:
      store_counts<std::uint32_t>(counts_.data(), counts_.size(), dst);
      break;
    default:
      store_counts<std::uint64_t>(counts_.data(), counts_.size(), dst);
  }
}

FlatCountTable FlatCountTable::decode(common::ByteReader& in) {
  const unsigned key_bits = in.u8();
  common::require(key_bits <= kMaxKeyBits,
                  "FlatCountTable: snapshot key space too large");
  const unsigned width = in.u8();
  common::require(width == 1 || width == 2 || width == 4 || width == 8,
                  "FlatCountTable: snapshot count width invalid");
  const std::size_t n = std::size_t{2} << key_bits;
  common::require(in.remaining() / width >= n,
                  "FlatCountTable: snapshot table runs past the payload end");
  const char* src = in.take(n * width);
  FlatCountTable table(key_bits);
  std::uint64_t* dst = table.counts_.data();
  switch (width) {
    case 1:
      load_counts<std::uint8_t>(src, n, dst);
      break;
    case 2:
      load_counts<std::uint16_t>(src, n, dst);
      break;
    case 4:
      load_counts<std::uint32_t>(src, n, dst);
      break;
    default:
      load_counts<std::uint64_t>(src, n, dst);
  }
  // Only the narrowest width is canonical, so a loaded table re-encodes to
  // the bytes it came from.
  common::require(table.count_width() == width,
                  "FlatCountTable: snapshot count width is not the narrowest");
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
