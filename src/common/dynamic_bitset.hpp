// A compact dynamically-sized bitset with the set operations needed by the
// combinational-cone analysis (union, subset test, iteration over set bits).
//
// std::vector<bool> lacks word-level access and std::bitset is fixed-size;
// the probing engine unions thousands of source sets, so word-parallel
// operations matter.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"

namespace sca::common {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_(ceil_div(size, 64), 0) {}

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    SCA_ASSERT(i < size_, "DynamicBitset::test out of range");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i) {
    SCA_ASSERT(i < size_, "DynamicBitset::set out of range");
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  void reset(std::size_t i) {
    SCA_ASSERT(i < size_, "DynamicBitset::reset out of range");
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(popcount64(w));
    return n;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  bool none() const { return !any(); }

  /// In-place union. Both operands must have the same size.
  DynamicBitset& operator|=(const DynamicBitset& other) {
    SCA_ASSERT(size_ == other.size_, "DynamicBitset size mismatch in |=");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  /// In-place intersection.
  DynamicBitset& operator&=(const DynamicBitset& other) {
    SCA_ASSERT(size_ == other.size_, "DynamicBitset size mismatch in &=");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  /// In-place symmetric difference (GF(2) sum of the indicator vectors).
  DynamicBitset& operator^=(const DynamicBitset& other) {
    SCA_ASSERT(size_ == other.size_, "DynamicBitset size mismatch in ^=");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
    return *this;
  }

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }

  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// True if every set bit of *this is also set in `other`.
  bool is_subset_of(const DynamicBitset& other) const {
    SCA_ASSERT(size_ == other.size_, "DynamicBitset size mismatch in subset");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        out.push_back(wi * 64 + ctz64(w));
        w &= w - 1;
      }
    }
    return out;
  }

  /// FNV-style hash over the words, usable as an unordered_map key helper.
  std::size_t hash() const {
    std::size_t h = 0xcbf29ce484222325ull ^ size_;
    for (auto w : words_) {
      h ^= static_cast<std::size_t>(w);
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct DynamicBitsetHash {
  std::size_t operator()(const DynamicBitset& b) const { return b.hash(); }
};

}  // namespace sca::common
