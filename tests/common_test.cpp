#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/dynamic_bitset.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"

namespace sca::common {
namespace {

TEST(Bitops, Parity) {
  EXPECT_EQ(parity64(0), 0u);
  EXPECT_EQ(parity64(1), 1u);
  EXPECT_EQ(parity64(0b1011), 1u);
  EXPECT_EQ(parity64(~std::uint64_t{0}), 0u);
}

TEST(Bitops, BitAndWithBit) {
  EXPECT_EQ(bit(0b100, 2), 1u);
  EXPECT_EQ(bit(0b100, 1), 0u);
  EXPECT_EQ(with_bit(0b100, 0, 1), 0b101u);
  EXPECT_EQ(with_bit(0b101, 2, 0), 0b001u);
}

TEST(Bitops, BroadcastBit) {
  EXPECT_EQ(broadcast_bit(0), 0u);
  EXPECT_EQ(broadcast_bit(1), ~std::uint64_t{0});
}

TEST(Bitops, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 64), 0u);
  EXPECT_EQ(ceil_div(1, 64), 1u);
  EXPECT_EQ(ceil_div(64, 64), 1u);
  EXPECT_EQ(ceil_div(65, 64), 2u);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowRejectsZeroBound) {
  Xoshiro256 rng(7);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, NonzeroByteNeverZero) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 4096; ++i) EXPECT_NE(rng.nonzero_byte(), 0);
}

TEST(Rng, ByteRoughlyUniform) {
  Xoshiro256 rng(11);
  std::map<int, int> hist;
  const int kDraws = 256 * 200;
  for (int i = 0; i < kDraws; ++i) hist[rng.byte()]++;
  // Every byte value should appear; expected count 200 per bin.
  EXPECT_EQ(hist.size(), 256u);
  for (const auto& [v, c] : hist) EXPECT_GT(c, 100) << "value " << v;
}

TEST(Rng, BitIsBalanced) {
  Xoshiro256 rng(5);
  int ones = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) ones += static_cast<int>(rng.bit());
  EXPECT_GT(ones, kDraws / 2 - 300);
  EXPECT_LT(ones, kDraws / 2 + 300);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Xoshiro256 parent(9);
  Xoshiro256 child1 = parent.split();
  Xoshiro256 child2 = parent.split();
  EXPECT_NE(child1.next(), child2.next());
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynamicBitset, UnionIntersection) {
  DynamicBitset a(100), b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);
  const DynamicBitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  const DynamicBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));
}

TEST(DynamicBitset, SubsetAndIntersects) {
  DynamicBitset a(80), b(80);
  a.set(5);
  b.set(5);
  b.set(6);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  DynamicBitset c(80);
  c.set(7);
  EXPECT_FALSE(a.intersects(c));
}

TEST(DynamicBitset, SetBitsAscending) {
  DynamicBitset a(200);
  a.set(199);
  a.set(0);
  a.set(63);
  a.set(64);
  const auto bits = a.set_bits();
  ASSERT_EQ(bits.size(), 4u);
  EXPECT_EQ(bits[0], 0u);
  EXPECT_EQ(bits[1], 63u);
  EXPECT_EQ(bits[2], 64u);
  EXPECT_EQ(bits[3], 199u);
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a(70), b(70);
  a.set(33);
  b.set(33);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(34);
  EXPECT_FALSE(a == b);
}

TEST(DynamicBitset, DistinctSetsUsuallyHashDifferently) {
  std::set<std::size_t> hashes;
  for (std::size_t i = 0; i < 64; ++i) {
    DynamicBitset b(64);
    b.set(i);
    hashes.insert(b.hash());
  }
  EXPECT_GT(hashes.size(), 60u);
}

TEST(ThreadPool, ResolveThreadsNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for(0, 8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, MoreWorkersThanItemsCoversEveryIndexOnce) {
  constexpr std::size_t kItems = 3;
  std::vector<std::atomic<int>> hits(kItems);
  parallel_for(kItems, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  try {
    parallel_for(64, 4, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("worker 17 failed");
    });
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker 17 failed"),
              std::string::npos);
  }
}

TEST(ThreadPool, StatefulVariantBuildsOneStatePerWorker) {
  std::atomic<int> states_made{0};
  std::vector<std::atomic<int>> hits(32);
  parallel_for_stateful(
      hits.size(), 4,
      [&] {
        states_made.fetch_add(1);
        return 0;
      },
      [&](int& scratch, std::size_t i) {
        ++scratch;
        hits[i].fetch_add(1);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(states_made.load(), 1);
  EXPECT_LE(states_made.load(), 4);
}

TEST(ThreadPool, ChunkSeedsAreDistinctPerChunkAndSeed) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t campaign_seed : {0ull, 1ull, 0xDEADBEEFull})
    for (std::uint64_t chunk = 0; chunk < 64; ++chunk)
      seeds.insert(chunk_seed(campaign_seed, chunk));
  EXPECT_EQ(seeds.size(), 3u * 64u);
  // Streams seeded from adjacent chunks must not correlate trivially.
  Xoshiro256 a(chunk_seed(42, 0)), b(chunk_seed(42, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Bitops, CsaIsAFullAdderPerLane) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t a = rng.next(), b = rng.next(), c = rng.next();
    std::uint64_t high = 0, low = 0;
    csa(high, low, a, b, c);
    for (unsigned lane = 0; lane < 64; ++lane) {
      const unsigned sum = static_cast<unsigned>((a >> lane) & 1) +
                           static_cast<unsigned>((b >> lane) & 1) +
                           static_cast<unsigned>((c >> lane) & 1);
      EXPECT_EQ(2 * ((high >> lane) & 1) + ((low >> lane) & 1), sum);
    }
  }
}

TEST(Bitops, ExtractBits64MatchesNaiveGather) {
  Xoshiro256 rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t v = rng.next();
    const std::uint64_t mask = rng.next() & rng.next();  // sparse-ish
    std::uint64_t expected = 0;
    unsigned bit = 0;
    for (unsigned i = 0; i < 64; ++i)
      if ((mask >> i) & 1) expected |= ((v >> i) & 1) << bit++;
    EXPECT_EQ(extract_bits64(v, mask), expected);
  }
  EXPECT_EQ(extract_bits64(0xFFFFFFFFFFFFFFFFull, 0), 0u);
  EXPECT_EQ(extract_bits64(0xA5ull, 0xFFull), 0xA5ull);
}

TEST(Bitops, Transpose64MatchesNaive) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint64_t m[64], original[64];
    for (auto& row : m) row = rng.next();
    std::copy(std::begin(m), std::end(m), std::begin(original));
    transpose64(m);
    for (unsigned r = 0; r < 64; ++r)
      for (unsigned c = 0; c < 64; ++c)
        ASSERT_EQ((m[r] >> c) & 1, (original[c] >> r) & 1)
            << "element (" << r << ", " << c << ")";
  }
}

TEST(Bitops, Transpose64IsSelfInverse) {
  Xoshiro256 rng(13);
  std::uint64_t m[64], original[64];
  for (auto& row : m) row = rng.next();
  std::copy(std::begin(m), std::end(m), std::begin(original));
  transpose64(m);
  transpose64(m);
  for (unsigned r = 0; r < 64; ++r) EXPECT_EQ(m[r], original[r]);
}

TEST(Bitops, Transpose8x8MatchesNaive) {
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t x = rng.next();
    const std::uint64_t y = transpose8x8(x);
    for (unsigned r = 0; r < 8; ++r)
      for (unsigned c = 0; c < 8; ++c)
        ASSERT_EQ((y >> (8 * r + c)) & 1, (x >> (8 * c + r)) & 1);
    EXPECT_EQ(transpose8x8(y), x);
  }
}

TEST(VerticalCounter, MatchesNaivePerLanePopcount) {
  Xoshiro256 rng(23);
  for (unsigned words : {0u, 1u, 3u, 17u, 64u, 200u}) {
    VerticalCounter vc;
    std::array<unsigned, 64> expected{};
    for (unsigned w = 0; w < words; ++w) {
      const std::uint64_t v = rng.next();
      vc.add(v);
      for (unsigned lane = 0; lane < 64; ++lane)
        expected[lane] += static_cast<unsigned>((v >> lane) & 1);
    }
    std::array<std::uint16_t, 64> got{};
    vc.lane_counts(got.data());
    for (unsigned lane = 0; lane < 64; ++lane) {
      ASSERT_EQ(got[lane], expected[lane]) << "lane " << lane;
      ASSERT_EQ(vc.lane_count(lane), expected[lane]);
    }
  }
}

TEST(VerticalCounter, ClearResetsAndReuses) {
  VerticalCounter vc;
  vc.add(~std::uint64_t{0});
  vc.add(~std::uint64_t{0});
  EXPECT_EQ(vc.lane_count(0), 2u);
  vc.clear();
  EXPECT_EQ(vc.planes_in_use(), 0u);
  EXPECT_EQ(vc.lane_count(63), 0u);
  vc.add(1);
  EXPECT_EQ(vc.lane_count(0), 1u);
  EXPECT_EQ(vc.lane_count(1), 0u);
}

TEST(ThreadPool, FinalizeRunsOncePerWorker) {
  std::atomic<int> states_made{0};
  std::atomic<int> finalized{0};
  std::atomic<int> total{0};
  parallel_for_stateful(
      100, 4,
      [&] {
        states_made.fetch_add(1);
        return int{0};
      },
      [](int& local, std::size_t i) { local += static_cast<int>(i); },
      [&](int& local) {
        finalized.fetch_add(1);
        total.fetch_add(local);
      });
  EXPECT_EQ(finalized.load(), states_made.load());
  EXPECT_EQ(total.load(), 99 * 100 / 2);
}

TEST(ThreadPool, FinalizeSkippedOnFailure) {
  std::atomic<int> finalized{0};
  EXPECT_THROW(
      parallel_for_stateful(
          8, 2, [] { return 0; },
          [](int&, std::size_t i) {
            if (i == 3) throw std::runtime_error("boom");
          },
          [&](int&) { finalized.fetch_add(1); }),
      std::runtime_error);
  // Workers that drained cleanly may finalize, but never all of them when
  // the failure raced in first; the failing worker itself must not.
  EXPECT_LE(finalized.load(), 1);
}

TEST(Check, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken contract");
    FAIL() << "require should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken contract"), std::string::npos);
  }
}

// --- wide SIMD words and the wide statistics primitives ---------------------

TEST(Simd, WordOpsMatchPerLimbScalar) {
  Xoshiro256 rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t a[8], b[8];
    for (auto& w : a) w = rng.next();
    for (auto& w : b) w = rng.next();
    const auto wa = SimdWord<8>::load(a);
    const auto wb = SimdWord<8>::load(b);
    for (unsigned i = 0; i < 8; ++i) {
      ASSERT_EQ((wa & wb).limb(i), a[i] & b[i]);
      ASSERT_EQ((wa | wb).limb(i), a[i] | b[i]);
      ASSERT_EQ((wa ^ wb).limb(i), a[i] ^ b[i]);
      ASSERT_EQ((~wa).limb(i), ~a[i]);
    }
    unsigned pc = 0;
    for (unsigned i = 0; i < 8; ++i)
      pc += static_cast<unsigned>(popcount64(a[i]));
    EXPECT_EQ(wa.popcount(), pc);
    EXPECT_EQ(wa.popcount(8), pc);
    EXPECT_EQ(wa.popcount(3), static_cast<unsigned>(popcount64(a[0]) +
                                                    popcount64(a[1]) +
                                                    popcount64(a[2])));
  }
  EXPECT_FALSE(SimdWord<4>::zero().any());
  EXPECT_TRUE(SimdWord<4>::ones().any());
}

TEST(Simd, LaneWidthResolution) {
  EXPECT_TRUE(valid_lane_width(64));
  EXPECT_TRUE(valid_lane_width(256));
  EXPECT_TRUE(valid_lane_width(512));
  EXPECT_FALSE(valid_lane_width(128));
  EXPECT_FALSE(valid_lane_width(0));
  EXPECT_EQ(resolve_lanes(256), 256u);
  EXPECT_TRUE(valid_lane_width(native_lane_width()));
  EXPECT_THROW(resolve_lanes(100), std::runtime_error);
}

TEST(Bitops, WideCsaIsAFullAdderPerLane) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint64_t a[4], b[4], c[4];
    for (auto& w : a) w = rng.next();
    for (auto& w : b) w = rng.next();
    for (auto& w : c) w = rng.next();
    SimdWord<4> high, low;
    csa(high, low, SimdWord<4>::load(a), SimdWord<4>::load(b),
        SimdWord<4>::load(c));
    for (unsigned i = 0; i < 4; ++i) {
      std::uint64_t sh = 0, sl = 0;
      csa(sh, sl, a[i], b[i], c[i]);
      ASSERT_EQ(high.limb(i), sh) << "limb " << i;
      ASSERT_EQ(low.limb(i), sl) << "limb " << i;
    }
  }
}

TEST(WideVerticalCounter, MatchesPerLimbScalarCounters) {
  Xoshiro256 rng(37);
  for (unsigned words : {0u, 1u, 5u, 40u, 130u}) {
    WideVerticalCounter<8> wide;
    std::array<VerticalCounter, 8> scalar;
    std::uint64_t total = 0;
    std::uint64_t total_active3 = 0;
    for (unsigned w = 0; w < words; ++w) {
      std::uint64_t limbs[8];
      for (auto& x : limbs) x = rng.next();
      wide.add(SimdWord<8>::load(limbs));
      for (unsigned i = 0; i < 8; ++i) {
        scalar[i].add(limbs[i]);
        total += static_cast<std::uint64_t>(popcount64(limbs[i]));
        if (i < 3) total_active3 += static_cast<std::uint64_t>(
            popcount64(limbs[i]));
      }
    }
    for (unsigned i = 0; i < 8; ++i) {
      std::uint16_t got[64], want[64];
      wide.lane_counts(i, got);
      scalar[i].lane_counts(want);
      for (unsigned lane = 0; lane < 64; ++lane)
        ASSERT_EQ(got[lane], want[lane]) << "limb " << i << " lane " << lane;
    }
    EXPECT_EQ(wide.total(), total);
    EXPECT_EQ(wide.total(3), total_active3);
    wide.clear();
    EXPECT_EQ(wide.total(), 0u);
    EXPECT_EQ(wide.planes_in_use(), 0u);
  }
}

TEST(Bitops, TransposeWx64BlockMatchesPerLimbTranspose) {
  Xoshiro256 rng(41);
  constexpr std::size_t kRows = 13;   // deliberately not a multiple of 64
  constexpr std::size_t kStride = 8;  // 512-lane rows
  std::vector<std::uint64_t> rows(kRows * kStride);
  for (auto& w : rows) w = rng.next();
  for (unsigned limb = 0; limb < kStride; ++limb) {
    std::uint64_t out[64];
    transpose_wx64_block(rows.data(), kRows, kStride, limb, out);
    for (unsigned lane = 0; lane < 64; ++lane)
      for (std::size_t r = 0; r < kRows; ++r)
        ASSERT_EQ((out[lane] >> r) & 1,
                  (rows[r * kStride + limb] >> lane) & 1)
            << "limb " << limb << " lane " << lane << " row " << r;
    // Rows past kRows zero-pad the keys.
    for (unsigned lane = 0; lane < 64; ++lane)
      ASSERT_EQ(out[lane] >> kRows, 0u);
  }
}

// --- the counter-mode PRG contract ------------------------------------------

TEST(CounterPrg, CoordinateAddressedAndOrderFree) {
  // Every word is a pure function of (seed, cycle, slot, index): re-reading
  // any coordinate in any order yields the same value — the property the
  // sharded campaign's resume/thread/lane-width bit-identity builds on.
  const CounterPrg prg(1234);
  const std::uint64_t a = prg.word(77, 3, 5);
  const std::uint64_t b = prg.word(12, 0, 0);
  EXPECT_EQ(prg.word(77, 3, 5), a);
  EXPECT_EQ(prg.word(12, 0, 0), b);
  // Stream handle factoring matches the direct form.
  const CounterPrg::Stream s = prg.stream(77, 3);
  EXPECT_EQ(CounterPrg::word_at(s, 5), a);

  // Distinct coordinates give distinct words (these specific ones, with
  // overwhelming probability for any decent mixer).
  EXPECT_NE(prg.word(77, 3, 5), prg.word(77, 3, 6));
  EXPECT_NE(prg.word(77, 3, 5), prg.word(77, 4, 5));
  EXPECT_NE(prg.word(77, 3, 5), prg.word(78, 3, 5));
  EXPECT_NE(CounterPrg(1235).word(77, 3, 5), a);
}

TEST(CounterPrg, WordsAreRoughlyBalanced) {
  // Cheap sanity screen, not a statistical proof: across many coordinates
  // the bit density stays near one half.
  const CounterPrg prg(99);
  std::uint64_t ones = 0;
  const unsigned kWords = 4096;
  for (unsigned i = 0; i < kWords; ++i)
    ones += static_cast<std::uint64_t>(
        popcount64(prg.word(i / 16, i % 16, i % 7)));
  const double density =
      static_cast<double>(ones) / (64.0 * kWords);
  EXPECT_GT(density, 0.48);
  EXPECT_LT(density, 0.52);
}

TEST(Rng, BelowBoundaryValues) {
  Xoshiro256 rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.below(2), 2u);
  // A bound just past a power of two exercises the rejection path.
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.below(bound), bound);
}

}  // namespace
}  // namespace sca::common
