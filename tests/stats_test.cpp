#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/stats/pvalue.hpp"
#include "src/stats/ttest.hpp"

namespace sca::stats {
namespace {

// --- chi-squared survival function -------------------------------------------

TEST(PValue, Chi2KnownQuantiles) {
  // P(X >= 3.841) with 1 df is 0.05; P(X >= 6.635) is 0.01.
  EXPECT_NEAR(std::exp(chi2_log_sf(3.841, 1)), 0.05, 2e-4);
  EXPECT_NEAR(std::exp(chi2_log_sf(6.635, 1)), 0.01, 2e-4);
  // 5 df: P(X >= 11.070) = 0.05.
  EXPECT_NEAR(std::exp(chi2_log_sf(11.070, 5)), 0.05, 2e-4);
}

TEST(PValue, Chi2DfTwoIsExactExponential) {
  // With 2 df the survival function is exactly exp(-x/2).
  for (double x : {0.5, 1.0, 5.0, 40.0, 200.0})
    EXPECT_NEAR(chi2_log_sf(x, 2), -x / 2.0, 1e-9) << "x=" << x;
}

TEST(PValue, ExtremeTailStaysFinite) {
  // G = 1000 with 1 df: -log10(p) should be large but finite (around 218).
  const double mlp = chi2_minus_log10_p(1000.0, 1);
  EXPECT_GT(mlp, 200.0);
  EXPECT_LT(mlp, 250.0);
  EXPECT_TRUE(std::isfinite(mlp));
}

TEST(PValue, ZeroStatisticGivesPOne) {
  EXPECT_DOUBLE_EQ(chi2_log_sf(0.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(chi2_minus_log10_p(0.0, 3), 0.0);
}

TEST(PValue, MonotoneInStatistic) {
  double prev = chi2_minus_log10_p(0.1, 4);
  for (double x = 1.0; x < 500.0; x += 7.3) {
    const double cur = chi2_minus_log10_p(x, 4);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(PValue, MatchesGammaIdentity) {
  // Q(1, x) = exp(-x) exactly.
  for (double x : {0.1, 1.0, 3.0, 30.0})
    EXPECT_NEAR(log_gamma_q(1.0, x), -x, 1e-10);
}

// --- G-test -------------------------------------------------------------------

TEST(GTestStat, IdenticalDistributionsGiveNoEvidence) {
  std::vector<std::uint64_t> row = {1000, 2000, 3000, 500};
  const GTestResult r = g_test_two_rows(row, row);
  EXPECT_LT(r.minus_log10_p, 1.0);
  EXPECT_NEAR(r.g, 0.0, 1e-9);
}

TEST(GTestStat, GrosslyDifferentDistributionsAreFlagged) {
  std::vector<std::uint64_t> fixed = {9000, 1000};
  std::vector<std::uint64_t> random = {1000, 9000};
  const GTestResult r = g_test_two_rows(fixed, random);
  EXPECT_GT(r.minus_log10_p, 100.0);
}

TEST(GTestStat, NullSamplesRarelyCrossThreshold) {
  // Draw both rows from the same multinomial; with the 10^-7 threshold the
  // false-positive rate over 200 repetitions should be zero.
  common::Xoshiro256 rng(99);
  int false_positives = 0;
  for (int rep = 0; rep < 200; ++rep) {
    FlatCountTable table(3);
    for (int i = 0; i < 4000; ++i) {
      table.add(rng.next() % 8, 0);
      table.add(rng.next() % 8, 1);
    }
    if (table.g_test().minus_log10_p > 7.0) ++false_positives;
  }
  EXPECT_EQ(false_positives, 0);
}

TEST(GTestStat, DetectsSmallBias) {
  // Fixed group has a 5% excess mass on one bin; with 100k samples the
  // G-test must see it well past the threshold.
  common::Xoshiro256 rng(123);
  FlatCountTable table(2);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t f = (rng.next() % 100 < 30) ? 0 : 1 + rng.next() % 3;
    const std::uint64_t r = (rng.next() % 100 < 25) ? 0 : 1 + rng.next() % 3;
    table.add(f, 0);
    table.add(r, 1);
  }
  EXPECT_GT(table.g_test().minus_log10_p, 7.0);
}

TEST(GTestStat, EmptyGroupGivesZero) {
  FlatCountTable table(2);
  table.add(1, 0, 100);
  table.add(2, 0, 50);
  const GTestResult r = table.g_test();
  EXPECT_EQ(r.minus_log10_p, 0.0);
  EXPECT_EQ(r.n_random, 0u);
}

TEST(GTestStat, SingleBinGivesZero) {
  FlatCountTable table(3);
  table.add(7, 0, 100);
  table.add(7, 1, 120);
  EXPECT_EQ(table.g_test().minus_log10_p, 0.0);
}

TEST(GTestStat, MergeAccumulates) {
  FlatCountTable a(2);
  CarryCountTable b(2);
  a.add(1, 0, 10);
  a.add(2, 1, 5);
  b.add(2 * 1 + 0, 7);
  b.add(2 * 3 + 1, 2);
  b.add_to(a);
  EXPECT_EQ(a.group_total(0), 17u);
  EXPECT_EQ(a.group_total(1), 7u);
  EXPECT_EQ(a.bin_count(), 3u);
}

TEST(GTestStat, LowExpectationBinsArePooled) {
  // 10 bins with tiny counts should pool into a single residual, leaving
  // df = 1 (two effective columns) rather than 10.
  FlatCountTable table(4);
  table.add(0, 0, 10000);
  table.add(0, 1, 10000);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    table.add(k, 0, 1);
    table.add(k, 1, 1);
  }
  const GTestResult r = table.g_test();
  EXPECT_EQ(r.bins, 2u);
  EXPECT_EQ(r.df, 1u);
}

TEST(GTestStat, DfCountsColumnsMinusOne) {
  FlatCountTable table(3);
  for (std::uint64_t k = 0; k < 5; ++k) {
    table.add(k, 0, 1000);
    table.add(k, 1, 1000 + 10 * k);
  }
  const GTestResult r = table.g_test();
  EXPECT_EQ(r.bins, 5u);
  EXPECT_EQ(r.df, 4u);
}

TEST(GTestStat, GStatisticMatchesHandComputation) {
  // 2x2 table: [[30, 10], [20, 40]].
  std::vector<std::uint64_t> fixed = {30, 10};
  std::vector<std::uint64_t> random = {20, 40};
  const GTestResult r = g_test_two_rows(fixed, random, /*min_expected=*/0.0);
  // E: col0 total 50, n0=40, n1=60, n=100 -> e00=20, e10=30, e01=20, e11=30.
  const double raw_g =
      2.0 * (30 * std::log(30 / 20.0) + 10 * std::log(10 / 20.0) +
             20 * std::log(20 / 30.0) + 40 * std::log(40 / 30.0));
  // Williams correction for the 2x2 table.
  const double row_term = 100.0 * (1.0 / 40.0 + 1.0 / 60.0) - 1.0;
  const double col_term = 100.0 * (1.0 / 50.0 + 1.0 / 50.0) - 1.0;
  const double q = 1.0 + row_term * col_term / (6.0 * 100.0 * 1.0);
  EXPECT_NEAR(r.g, raw_g / q, 1e-9);
  EXPECT_EQ(r.df, 1u);
}


// --- Welch t-test --------------------------------------------------------------

TEST(TTest, AccumulatorMatchesClosedForm) {
  MomentAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  // Sample variance of {1,2,3,4} is 5/3.
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(TTest, DetectsMeanShift) {
  common::Xoshiro256 rng(22);
  MomentAccumulator fixed, random;
  for (int i = 0; i < 20000; ++i) {
    fixed.add(static_cast<double>(rng.next() % 8));
    random.add(static_cast<double>(rng.next() % 8) + 0.2);
  }
  const TTestResult r = welch_t_test(fixed, random);
  EXPECT_GT(std::fabs(r.t), kTvlaThreshold);
}

TEST(TTest, NullStaysBelowThreshold) {
  common::Xoshiro256 rng(23);
  MomentAccumulator fixed, random;
  for (int i = 0; i < 20000; ++i) {
    fixed.add(static_cast<double>(rng.next() % 8));
    random.add(static_cast<double>(rng.next() % 8));
  }
  EXPECT_LT(std::fabs(welch_t_test(fixed, random).t), kTvlaThreshold);
}

TEST(TTest, DegenerateInputsGiveZero) {
  MomentAccumulator empty, one;
  one.add(3.0);
  EXPECT_EQ(welch_t_test(empty, one).t, 0.0);
  MomentAccumulator ca, cb;  // constant equal samples
  for (int i = 0; i < 10; ++i) {
    ca.add(2.0);
    cb.add(2.0);
  }
  EXPECT_EQ(welch_t_test(ca, cb).t, 0.0);
}

TEST(TTest, AddWeightedIsBitIdenticalToRepeatedAdds) {
  common::Xoshiro256 rng(31);
  // On a fresh accumulator, a run of equal samples is exact either way:
  // mean == sample and M2 == 0.
  for (int step = 0; step < 200; ++step) {
    const double sample = static_cast<double>(rng.below(20));
    const std::uint64_t count = 1 + rng.below(7);
    MomentAccumulator weighted, sequential;
    weighted.add_weighted(sample, count);
    for (std::uint64_t i = 0; i < count; ++i) sequential.add(sample);
    ASSERT_EQ(weighted.count(), sequential.count());
    ASSERT_EQ(weighted.mean(), sequential.mean());
    ASSERT_EQ(weighted.variance(), sequential.variance());
  }
  // Across runs, the weighted fold tracks sequential adds up to rounding.
  MomentAccumulator weighted, sequential;
  for (int step = 0; step < 200; ++step) {
    const double sample = static_cast<double>(rng.below(20));
    const std::uint64_t count = 1 + rng.below(7);
    weighted.add_weighted(sample, count);
    for (std::uint64_t i = 0; i < count; ++i) sequential.add(sample);
  }
  EXPECT_EQ(weighted.count(), sequential.count());
  EXPECT_NEAR(weighted.mean(), sequential.mean(), 1e-12 * sequential.mean());
  EXPECT_NEAR(weighted.variance(), sequential.variance(),
              1e-9 * sequential.variance());
  MomentAccumulator noop;
  noop.add_weighted(5.0, 0);
  EXPECT_EQ(noop.count(), 0u);
}

TEST(TTest, AddWeightedHistogramEqualsAscendingWeightedAdds) {
  // The histogram fold the campaign's t-test uses must replay exactly the
  // ascending-value add_weighted sequence (bit-identical Welford state).
  const std::vector<std::uint64_t> hist = {3, 0, 17, 1, 0, 0, 9};
  MomentAccumulator batched, reference;
  batched.add_weighted_histogram(hist.data(), hist.size());
  for (std::size_t v = 0; v < hist.size(); ++v)
    if (hist[v]) reference.add_weighted(static_cast<double>(v), hist[v]);
  EXPECT_EQ(batched.count(), reference.count());
  EXPECT_EQ(batched.mean(), reference.mean());
  EXPECT_EQ(batched.variance(), reference.variance());

  MomentAccumulator empty;
  empty.add_weighted_histogram(nullptr, 0);
  EXPECT_EQ(empty.count(), 0u);
}

// --- flat count tables --------------------------------------------------------

TEST(FlatCountTable, AddMarginalizedEqualsDirectAccumulation) {
  // The subset-hosting contract: a hosted set's table built as an integer
  // marginal of its host's table is identical to accumulating the hosted
  // set sample by sample. Host keys carry 6 bits; the hosted set observes
  // bits {0, 2, 5} of them (host_mask selects those).
  common::Xoshiro256 rng(43);
  const std::uint64_t mask = 0b100101;
  FlatCountTable host(6), hosted_direct(3), marginal(3);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(1u << 6);
    const int group = static_cast<int>(rng.bit());
    host.add(key, group);
    hosted_direct.add(common::extract_bits64(key, mask), group);
  }
  marginal.add_marginalized(host, mask);
  EXPECT_EQ(marginal, hosted_direct);
  const GTestResult a = marginal.g_test();
  const GTestResult b = hosted_direct.g_test();
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.minus_log10_p, b.minus_log10_p);

  // Re-materialization (clear + marginalize again, as the campaign does
  // after every stage) reproduces the same table.
  marginal.clear();
  EXPECT_EQ(marginal.key_bits(), 3u);
  marginal.add_marginalized(host, mask);
  EXPECT_EQ(marginal, hosted_direct);
}

TEST(FlatCountTable, FlatMergeMatchesScalarReplay) {
  common::Xoshiro256 rng(53);
  // Master <- two worker tables must equal replaying every observation into
  // one table.
  FlatCountTable master(8), replay(8);
  CarryCountTable chunk_a(8), chunk_b(8);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.below(256);
    const int group = static_cast<int>(rng.bit());
    (i % 2 ? chunk_a : chunk_b).add(2 * key + group, 1);
    replay.add(key, group);
  }
  chunk_a.add_to(master);
  chunk_b.add_to(master);
  EXPECT_EQ(master, replay);
  EXPECT_EQ(master.g_test().g, replay.g_test().g);
}

TEST(FlatCountTable, MergeIsOrderFree) {
  // The campaign folds worker tables into the master in whatever order the
  // workers finish; every order must give the same table and the same
  // G statistic.
  common::Xoshiro256 rng(59);
  std::vector<CarryCountTable> chunks(5, CarryCountTable(7));
  for (int i = 0; i < 5000; ++i)
    chunks[rng.below(5)].add(2 * rng.below(128) + rng.bit(), 1);
  FlatCountTable forward(7), backward(7);
  for (const auto& chunk : chunks) chunk.add_to(forward);
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it)
    it->add_to(backward);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.g_test().g, backward.g_test().g);
  EXPECT_EQ(forward.group_total(0) + forward.group_total(1), 5000u);
}

TEST(CarryCountTable, CarriesRestoreTheExactSum) {
  // 70,000 single increments and 300 adds of 512 on one entry wrap the
  // 16-bit counter three times; add_to() must restore the u64 sum, on top
  // of what the master already holds, and leave other entries alone.
  CarryCountTable worker(4);
  FlatCountTable master(4), expected(4);
  master.add(5, 1, 7);
  expected.add(5, 1, 7);
  for (int i = 0; i < 70000; ++i) worker.add(2 * 5 + 1, 1);
  for (int i = 0; i < 300; ++i) worker.add(2 * 5 + 1, 512);
  worker.add(2 * 3, 9);
  expected.add(5, 1, 70000 + 300 * 512);
  expected.add(3, 0, 9);
  worker.add_to(master);
  EXPECT_EQ(master, expected);
  EXPECT_EQ(master.counts_for(5)[1], 7u + 70000u + 300u * 512u);
}

TEST(FlatCountTable, KeysOutsideTheSpaceAreRejected) {
  FlatCountTable table(4);
  EXPECT_THROW(table.add(16, 0), common::Error);
  EXPECT_THROW(table.add(3, 2), common::Error);
  EXPECT_EQ(table.counts_for(16), (std::array<std::uint64_t, 2>{0, 0}));
  EXPECT_THROW(CarryCountTable(5).add_to(table), common::Error);
  FlatCountTable unsized;
  EXPECT_THROW(unsized.add(0, 0), common::Error);
}

TEST(FlatCountTable, ClearKeepsModeAndCapacity) {
  FlatCountTable table(6);
  for (int i = 0; i < 100; ++i)
    table.add(static_cast<std::uint64_t>(i % 64), i % 2);
  table.clear();
  EXPECT_EQ(table.key_bits(), 6u);
  EXPECT_EQ(table.bin_count(), 0u);
  EXPECT_EQ(table.group_total(0) + table.group_total(1), 0u);
  table.add(5, 0);
  EXPECT_EQ(table.counts_for(5)[0], 1u);
}

// --- snapshot serialization round trips -------------------------------------
//
// The checkpoint/resume machinery depends on encode() -> decode() restoring
// count tables exactly, and on decode() rejecting anything encode() could
// not have written (snapshots are untrusted input).

FlatCountTable decode_all(const std::string& bytes) {
  common::ByteReader in(bytes.data(), bytes.size());
  FlatCountTable table = FlatCountTable::decode(in);
  EXPECT_EQ(in.remaining(), 0u);
  return table;
}

TEST(Serialization, FlatCountTableDirectRoundTrip) {
  FlatCountTable table(10);
  common::Xoshiro256 rng(11);
  for (int i = 0; i < 3000; ++i)
    table.add(rng.below(1024), static_cast<int>(rng.bit()));
  std::string bytes;
  table.encode(bytes);
  EXPECT_EQ(bytes.size(), table.encoded_size());
  EXPECT_EQ(bytes.size(), 2u + 2048u * table.count_width());
  const FlatCountTable restored = decode_all(bytes);
  EXPECT_EQ(restored.key_bits(), 10u);
  EXPECT_EQ(table, restored);
  EXPECT_EQ(table.bin_count(), restored.bin_count());
}

TEST(Serialization, TruncatedStreamsThrow) {
  FlatCountTable ft(5);
  ft.add(10, 0);
  ft.add(20, 1);
  std::string full;
  ft.encode(full);
  ASSERT_GT(full.size(), 4u);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          full.size() / 2, full.size() - 1}) {
    const std::string part = full.substr(0, cut);
    common::ByteReader in(part.data(), part.size());
    EXPECT_THROW(FlatCountTable::decode(in), common::Error) << cut;
  }
}

TEST(Serialization, MalformedFlatCountTablesAreRejected) {
  // Hand-written encodings: key bits, count width, then 2 << key_bits
  // counts at that width.
  auto encoding = [](unsigned key_bits, unsigned width,
                     const std::vector<std::uint64_t>& counts) {
    std::string out;
    common::put_u8(out, static_cast<std::uint8_t>(key_bits));
    common::put_u8(out, static_cast<std::uint8_t>(width));
    for (std::uint64_t c : counts)
      for (unsigned b = 0; b < width; ++b)
        out.push_back(static_cast<char>((c >> (8 * b)) & 0xFF));
    return out;
  };
  EXPECT_NO_THROW(decode_all(encoding(1, 1, {2, 3, 0, 1})));
  EXPECT_NO_THROW(decode_all(encoding(1, 2, {2, 300, 0, 1})));
  EXPECT_THROW(decode_all(encoding(FlatCountTable::kMaxKeyBits + 1, 1, {})),
               common::Error);                                  // too wide
  EXPECT_THROW(decode_all(encoding(1, 3, {2, 3, 0, 1})),
               common::Error);                                  // bad width
  EXPECT_THROW(decode_all(encoding(1, 0, {})), common::Error);  // bad width
  EXPECT_THROW(decode_all(encoding(1, 2, {2, 3, 0, 1})),
               common::Error);                          // width not narrowest
  EXPECT_THROW(decode_all(encoding(2, 1, {2, 3, 0, 1})),
               common::Error);                          // runs past the end
}

}  // namespace
}  // namespace sca::stats
