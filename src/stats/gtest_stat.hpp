// G-test (log-likelihood ratio) on 2 x K contingency tables.
//
// This is the statistic PROLEAD applies to the fixed-vs-random experiment:
// the two rows are the "fixed" and "random" simulation groups, the K columns
// are the distinct values observed by a (glitch/transition-extended) probe
// set, and the null hypothesis is that the observation distribution does not
// depend on the group.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sca::common {
class ByteReader;
}

namespace sca::stats {

/// Result of a G-test evaluation.
struct GTestResult {
  double g = 0.0;               ///< G statistic (2 * sum O ln(O/E)).
  std::size_t df = 0;           ///< Degrees of freedom.
  double minus_log10_p = 0.0;   ///< -log10 of the chi-squared p-value.
  std::size_t bins = 0;         ///< Number of distinct observed values.
  std::uint64_t n_fixed = 0;    ///< Total count in the fixed group.
  std::uint64_t n_random = 0;   ///< Total count in the random group.
};

/// Two-group count table over the key space [0, 2^key_bits): the counts
/// live in one flat array indexed by `2 * key + group`, so an observation
/// is one increment with no hashing and no probing. Every campaign
/// accumulator is one of these. Exact probe sets key it by their
/// observation bits, compacted sets by their Hamming-weight pair, and
/// t-test sets by their Hamming weight.
/// Because the whole key space is materialized, folding a worker's
/// CarryCountTable into it is a commutative integer add: no reduction
/// order can change a count.
class FlatCountTable {
 public:
  /// Exact observations at most this wide are tabulated as they are; the
  /// campaign compacts wider ones to Hamming weights. 2^16 keys is 1 MiB of
  /// counts per table.
  static constexpr unsigned kMaxDirectBits = 16;
  /// Largest key space a table (or a snapshot of one) may declare.
  static constexpr unsigned kMaxKeyBits = 24;

  /// An empty table with no key space (a placeholder; adding to it is a
  /// contract violation).
  FlatCountTable() = default;

  /// A zeroed table over keys [0, 2^key_bits).
  explicit FlatCountTable(unsigned key_bits);

  unsigned key_bits() const { return key_bits_; }

  /// Adds `count` observations of `key` to group 0 (fixed) or 1 (random).
  void add(std::uint64_t key, int group, std::uint64_t count = 1);

  /// Marginalization: folds `host`'s counts onto this table's smaller key
  /// space, where this table's key is the parallel bit extract of the host
  /// key under `key_mask` (popcount(key_mask) must equal this table's key
  /// bits). The result is integer-identical to having accumulated this
  /// table's observations directly — the correctness basis of the campaign
  /// planner's subset hosting.
  void add_marginalized(const FlatCountTable& host, std::uint64_t key_mask);

  /// Runs the G-test over the accumulated counts, one column per observed
  /// key in ascending key order. Bins with a low total expected count
  /// (< `min_expected`) are pooled into one residual bin to keep the
  /// chi-squared approximation honest, mirroring PROLEAD.
  GTestResult g_test(double min_expected = 5.0) const;

  /// Keys with at least one nonzero count.
  std::size_t bin_count() const;

  /// Counts of `key`, or {0, 0} outside the key space.
  std::array<std::uint64_t, 2> counts_for(std::uint64_t key) const;

  std::uint64_t group_total(int group) const;

  /// Zeroes every count and keeps the key space.
  void clear();

  /// Narrowest count width in bytes (1, 2, 4 or 8) that holds every count.
  unsigned count_width() const;

  /// Bytes encode() appends.
  std::size_t encoded_size() const;

  /// Appends the table's snapshot encoding to `out`: the key bits, the
  /// count width w, then all 2 << key_bits counts (entry 2*key + group)
  /// little-endian at w bytes each. The bytes are a pure function of the
  /// counts.
  void encode(std::string& out) const;

  /// Decodes one encode()d table from `in`. Throws common::Error on a key
  /// space above kMaxKeyBits, a width that is not the narrowest one, or
  /// counts running past the end of `in` — all checked before allocating
  /// (snapshots are untrusted).
  static FlatCountTable decode(common::ByteReader& in);

  bool operator==(const FlatCountTable& other) const = default;

 private:
  friend class CarryCountTable;  // folds its counters into counts_

  unsigned key_bits_ = 0;
  std::vector<std::uint64_t> counts_;  // 2 << key_bits_ entries once sized
};

/// A worker's private counts for one FlatCountTable: the same entries
/// (2 * key + group) in 16-bit counters, plus the list of entries whose
/// counter wrapped. Each listed entry stands for 2^16 observations the
/// counter no longer holds, so add_to() restores the exact 64-bit counts
/// at any budget, with no flush schedule. A quarter of the u64 table's
/// bytes keeps the wide-set histograms cache-resident; wraps are at most
/// one per 2^16 observations.
class CarryCountTable {
 public:
  CarryCountTable() = default;

  /// Zeroed counters over the entries of a FlatCountTable of `key_bits`.
  explicit CarryCountTable(unsigned key_bits);

  /// Adds `n` (< 2^16) to `entry`.
  void add(std::size_t entry, unsigned n) {
    const std::uint16_t old = counts_[entry];
    const auto now = static_cast<std::uint16_t>(old + n);
    counts_[entry] = now;
    if (now < old) [[unlikely]]
      carries_.push_back(static_cast<std::uint32_t>(entry));
  }

  /// Adds every count to `master`, which spans the same key space — the
  /// reduction of a parallel campaign, independent of merge order.
  void add_to(FlatCountTable& master) const;

  /// Bytes of counters a table of `key_bits` holds.
  static std::size_t bytes(unsigned key_bits) {
    return (std::size_t{2} << key_bits) * sizeof(std::uint16_t);
  }

 private:
  std::vector<std::uint16_t> counts_;
  std::vector<std::uint32_t> carries_;  // one entry per 2^16 wrap
};

/// G-test over explicit columns {fixed count, random count}, taken in the
/// order given; FlatCountTable::g_test passes its observed keys in
/// ascending key order, so any caller that does the same gets a
/// bit-identical result from the same counts.
GTestResult g_test_columns(const std::vector<std::array<std::uint64_t, 2>>& cols,
                           double min_expected = 5.0);

/// Convenience: G-test on an explicit pair of count vectors (same length,
/// column i of both rows). Used by the exact verifier and unit tests.
GTestResult g_test_two_rows(const std::vector<std::uint64_t>& row_fixed,
                            const std::vector<std::uint64_t>& row_random,
                            double min_expected = 5.0);

}  // namespace sca::stats
