// Small bit-manipulation helpers used by the field arithmetic, the netlist
// simulator and the statistical evaluation engine, plus the bit-sliced
// primitives behind the campaign's statistics hot path: a Hacker's-Delight
// 64x64 bit-matrix transpose (64 exact observation keys per call) and a
// carry-save vertical counter (per-lane Hamming weights of k words in O(k)
// word operations).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/common/check.hpp"
#include "src/common/simd.hpp"

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace sca::common {

/// Number of set bits in `v`.
inline int popcount64(std::uint64_t v) { return std::popcount(v); }

/// XOR-parity (0 or 1) of all bits of `v`.
inline std::uint64_t parity64(std::uint64_t v) {
  return static_cast<std::uint64_t>(std::popcount(v) & 1);
}

/// Extracts bit `i` of `v` as 0/1.
inline std::uint64_t bit(std::uint64_t v, unsigned i) { return (v >> i) & 1u; }

/// Sets bit `i` of `v` to `b` (b must be 0 or 1).
inline std::uint64_t with_bit(std::uint64_t v, unsigned i, std::uint64_t b) {
  return (v & ~(std::uint64_t{1} << i)) | (b << i);
}

/// Broadcasts a single bit (0/1) to a full 64-bit lane mask (0 or ~0).
inline std::uint64_t broadcast_bit(std::uint64_t b) {
  return std::uint64_t{0} - (b & 1u);
}

/// Index of the least significant set bit; undefined for v == 0.
inline unsigned ctz64(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Ceiling division for unsigned types.
inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Parallel bit extract: gathers the bits of `v` selected by `mask` into
/// the low bits of the result, preserving their order (BMI2 pext, with a
/// portable loop fallback). The order-preserving contract is what lets the
/// accumulation planner express "this probe set's key inside its host's
/// key" and "these transposed block bits of a packed key" as a single mask.
inline std::uint64_t extract_bits64(std::uint64_t v, std::uint64_t mask) {
#if defined(__BMI2__)
  return _pext_u64(v, mask);
#else
  std::uint64_t out = 0;
  unsigned bit = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1)
    out |= ((v >> ctz64(m)) & 1u) << bit++;
  return out;
#endif
}

/// Carry-save adder: one full-adder layer over three 64-lane words. After
/// the call, per lane, a + b + c == 2 * high + low (bitwise sum and carry).
inline void csa(std::uint64_t& high, std::uint64_t& low, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  high = (a & b) | (u & c);
  low = u ^ c;
}

/// The same full-adder layer over W-lane SIMD words: one vector op per
/// logic step, so the vertical counters below cost the identical op count
/// per *word* at 4-8x the lanes.
template <unsigned kLimbs>
inline void csa(SimdWord<kLimbs>& high, SimdWord<kLimbs>& low,
                SimdWord<kLimbs> a, SimdWord<kLimbs> b, SimdWord<kLimbs> c) {
  const SimdWord<kLimbs> u = a ^ b;
  high = (a & b) | (u & c);
  low = u ^ c;
}

/// In-place transpose of a 64x64 bit matrix (Hacker's Delight 7-3,
/// recursive block swap): afterwards bit c of m[r] is the former bit r of
/// m[c]. Self-inverse. This turns k gathered observation words (row d = the
/// 64-lane value of observation bit d) into 64 per-lane exact keys (row L =
/// lane L's observation tuple) in ~6*64 word operations — no per-bit
/// shifting.
inline void transpose64(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      // LSB-first columns (bit i = column i), so the off-diagonal blocks to
      // swap sit in the HIGH half of m[k] and the LOW half of m[k + j] —
      // the mirror image of the textbook MSB-first formulation.
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

/// Transpose of an 8x8 bit matrix packed row-major into one word (row r =
/// byte r, i.e. bits [8r, 8r+8)): afterwards bit c of row r is the former
/// bit r of row c.
inline std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Bit-sliced vertical counter: 64 independent saturating-free counters,
/// one per lane, held column-wise (bit L of planes_[j] is bit j of lane L's
/// count). add(w) increments every lane whose bit is set in w with a
/// ripple-carry over the planes — amortized O(1) word operations per word
/// added — so the per-lane Hamming weight of k observation words costs O(k)
/// word operations total instead of 64*k scalar shifts. Capacity 2^16 - 1
/// per lane (16 planes), far beyond any probe-set observation width.
class VerticalCounter {
 public:
  static constexpr unsigned kPlanes = 16;

  /// Per-lane increment by the bits of `w`.
  void add(std::uint64_t w) {
    std::uint64_t carry = w;
    for (unsigned j = 0; carry != 0; ++j) {
      if (j == used_) {
        SCA_ASSERT(used_ < kPlanes, "VerticalCounter: lane count overflow");
        planes_[used_++] = carry;  // counter grows a plane; no overflow yet
        return;
      }
      const std::uint64_t t = planes_[j] & carry;
      planes_[j] ^= carry;
      carry = t;
    }
  }

  /// Count of lane L (sum of the added words' bits L).
  unsigned lane_count(unsigned lane) const {
    unsigned v = 0;
    for (unsigned j = 0; j < used_; ++j)
      v |= static_cast<unsigned>((planes_[j] >> lane) & 1u) << j;
    return v;
  }

  /// Extracts all 64 per-lane counts at once.
  void lane_counts(std::uint16_t out[64]) const {
    for (unsigned lane = 0; lane < 64; ++lane) {
      unsigned v = 0;
      for (unsigned j = 0; j < used_; ++j)
        v |= static_cast<unsigned>((planes_[j] >> lane) & 1u) << j;
      out[lane] = static_cast<std::uint16_t>(v);
    }
  }

  /// Resets every lane to zero (O(planes in use)).
  void clear() {
    for (unsigned j = 0; j < used_; ++j) planes_[j] = 0;
    used_ = 0;
  }

  /// Number of planes currently in use (== bit width of the largest count).
  unsigned planes_in_use() const { return used_; }

 private:
  std::array<std::uint64_t, kPlanes> planes_{};
  unsigned used_ = 0;
};

/// W-lane generalization of VerticalCounter: W = 64 * kLimbs independent
/// per-lane counters held column-wise in SIMD bit planes. Same ripple-carry
/// add (amortized O(1) vector ops per word) over 4-8x the lanes; extraction
/// goes one 64-lane limb at a time so chunk tails (inactive high limbs) can
/// be skipped.
template <unsigned kLimbs>
class WideVerticalCounter {
 public:
  using Word = SimdWord<kLimbs>;
  static constexpr unsigned kPlanes = 16;

  /// Per-lane increment by the bits of `w`.
  void add(Word w) {
    Word carry = w;
    for (unsigned j = 0; carry.any(); ++j) {
      if (j == used_) {
        SCA_ASSERT(used_ < kPlanes, "WideVerticalCounter: lane count overflow");
        planes_[used_++] = carry;
        return;
      }
      const Word t = planes_[j] & carry;
      planes_[j] = planes_[j] ^ carry;
      carry = t;
    }
  }

  /// Extracts the 64 per-lane counts of limb `limb` (lanes [64*limb,
  /// 64*limb + 64)).
  void lane_counts(unsigned limb, std::uint16_t out[64]) const {
    for (unsigned lane = 0; lane < 64; ++lane) {
      unsigned v = 0;
      for (unsigned j = 0; j < used_; ++j)
        v |= static_cast<unsigned>((planes_[j].limb(limb) >> lane) & 1u) << j;
      out[lane] = static_cast<std::uint16_t>(v);
    }
  }

  /// Sum of all lane counts across limbs [0, active) — one popcount per
  /// plane in use instead of per-lane extraction.
  std::uint64_t total(unsigned active = kLimbs) const {
    std::uint64_t sum = 0;
    for (unsigned j = 0; j < used_; ++j)
      sum += static_cast<std::uint64_t>(planes_[j].popcount(active)) << j;
    return sum;
  }

  /// Resets every lane to zero (O(planes in use)).
  void clear() {
    for (unsigned j = 0; j < used_; ++j) planes_[j] = Word::zero();
    used_ = 0;
  }

  unsigned planes_in_use() const { return used_; }

  /// Bit-plane j of the per-lane counts (j < planes_in_use()): lane L's
  /// count has bit j set iff plane j has lane L set. Conjunction-expanding
  /// the planes histograms the counts without per-lane extraction.
  const Word& plane(unsigned j) const { return planes_[j]; }

 private:
  std::array<Word, kPlanes> planes_{};
  unsigned used_ = 0;
};

/// One 64-lane block of a W x 64 bit-matrix transpose. The input is `nrows`
/// rows (nrows <= 64) of kLimbs-limb SIMD lane words — row r holds
/// observation bit r of W lanes — laid out as rows[r * stride + limb].
/// The output is the transposed 64x64 block for lanes [64*limb, 64*limb+64):
/// out[L] is the nrows-bit key of lane 64*limb + L (bit r = row r's bit).
/// Rows past nrows zero-pad, exactly like the 64x64 core used alone.
inline void transpose_wx64_block(const std::uint64_t* rows, std::size_t nrows,
                                 std::size_t stride, unsigned limb,
                                 std::uint64_t out[64]) {
  SCA_ASSERT(nrows <= 64, "transpose_wx64_block: at most 64 rows");
  for (std::size_t r = 0; r < nrows; ++r) out[r] = rows[r * stride + limb];
  for (std::size_t r = nrows; r < 64; ++r) out[r] = 0;
  transpose64(out);
}

}  // namespace sca::common
