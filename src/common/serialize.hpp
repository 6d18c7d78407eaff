// Little-endian binary encoding and the one snapshot envelope.
//
// Snapshots (campaign checkpoints, family-13 sweep checkpoints) are built
// in one std::string with the put_* appenders and decoded from a
// bounds-checked ByteReader over the file read whole. The format is
// explicit and platform-independent (fixed widths, fixed byte order,
// doubles bit-cast through uint64), and every read past the end throws an
// Error instead of returning garbage. The FNV-1a accumulator doubles as the
// envelope checksum and the campaign-options fingerprint.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/check.hpp"

namespace sca::common {

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, 8);
}

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

/// Doubles travel as their IEEE-754 bit pattern, so decoding is bit-exact.
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Length-prefixed string.
inline void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

/// A read cursor over bytes it does not own. Every read checks the bytes
/// left first, so a corrupted length can neither read past the buffer nor
/// trigger an allocation larger than the input.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : p_(data), end_(data + size) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  /// Consumes `n` bytes and returns where they start.
  const char* take(std::size_t n) {
    if (n > remaining()) throw Error("serialize: truncated payload");
    const char* at = p_;
    p_ += n;
    return at;
  }

  std::uint64_t u64() {
    const char* b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    return v;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string string(std::size_t max_len = std::size_t{1} << 24) {
    const std::uint64_t len = u64();
    require(len <= max_len, "serialize: string length out of range");
    const char* s = take(static_cast<std::size_t>(len));
    return std::string(s, static_cast<std::size_t>(len));
  }

 private:
  const char* p_;
  const char* end_;
};

/// Streaming FNV-1a over 64-bit words — the snapshot payload checksum and
/// the campaign-options fingerprint. Not cryptographic; it guards against
/// corruption and honest mismatches, not adversaries.
class Fnv1a {
 public:
  Fnv1a& feed(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Fnv1a& feed(double v) { return feed(std::bit_cast<std::uint64_t>(v)); }
  Fnv1a& feed(const std::string& s) {
    feed(static_cast<std::uint64_t>(s.size()));
    return feed_bytes(s.data(), s.size());
  }
  Fnv1a& feed_bytes(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(data[i]);
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One kind of snapshot file. Every snapshot shares the envelope: the
/// 8-byte magic, a u64 version word, the u64 payload length, the payload,
/// and the u64 FNV-1a checksum of the payload.
struct SnapshotFormat {
  std::string_view magic;  ///< exactly 8 bytes
  std::uint64_t version;
  std::string_view label;     ///< error prefix, e.g. "checkpoint"
  std::string_view kind;      ///< e.g. "campaign snapshot"
  std::uint64_t max_payload;  ///< larger payloads are refused unread
};

inline constexpr std::size_t kSnapshotHeaderBytes = 24;  // magic to length
inline constexpr std::size_t kSnapshotTrailerBytes = 8;  // checksum

/// Writes `payload` in the envelope to a temp file and renames it over
/// `path`, so a crash mid-save never corrupts the previous snapshot.
void save_snapshot(const std::string& path, const SnapshotFormat& format,
                   std::string_view payload);

/// Reads the whole file at `path` in one read and checks its envelope:
/// magic, version, length, size cap and checksum. Returns the file bytes.
std::string read_snapshot(const std::string& path,
                          const SnapshotFormat& format);

/// read_snapshot(), then `decode(ByteReader&)` over the payload in place,
/// which must consume it exactly: trailing bytes mean a malformed writer or
/// corruption the field reads happened to tolerate.
template <typename Decode>
auto load_snapshot(const std::string& path, const SnapshotFormat& format,
                   Decode&& decode) {
  const std::string file = read_snapshot(path, format);
  ByteReader in(file.data() + kSnapshotHeaderBytes,
                file.size() - kSnapshotHeaderBytes - kSnapshotTrailerBytes);
  auto value = decode(in);
  require(in.remaining() == 0,
          std::string(format.label) + ": " + path + " has trailing bytes");
  return value;
}

}  // namespace sca::common
