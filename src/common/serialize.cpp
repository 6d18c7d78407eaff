#include "src/common/serialize.hpp"

#include <cstdio>
#include <fstream>

namespace sca::common {

namespace {

std::uint64_t checksum(std::string_view payload) {
  return Fnv1a().feed_bytes(payload.data(), payload.size()).value();
}

std::uint64_t u64_at(const std::string& file, std::size_t at) {
  return ByteReader(file.data() + at, 8).u64();
}

}  // namespace

void save_snapshot(const std::string& path, const SnapshotFormat& format,
                   std::string_view payload) {
  const std::string label(format.label);
  require(payload.size() <= format.max_payload,
          label + ": payload for " + path + " exceeds the size cap");
  std::string header(format.magic);
  put_u64(header, format.version);
  put_u64(header, payload.size());
  std::string trailer;
  put_u64(trailer, checksum(payload));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    require(os.good(), label + ": cannot open " + tmp + " for writing");
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
    os.flush();
    require(os.good(), label + ": write to " + tmp + " failed");
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          label + ": rename to " + path + " failed");
}

std::string read_snapshot(const std::string& path,
                          const SnapshotFormat& format) {
  const std::string label(format.label);
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  require(is.good(), label + ": cannot open " + path);
  const std::streamoff end = is.tellg();
  require(end >= 0, label + ": cannot read " + path);
  const auto size = static_cast<std::uint64_t>(end);
  constexpr std::uint64_t kFraming =
      kSnapshotHeaderBytes + kSnapshotTrailerBytes;
  require(size <= format.max_payload + kFraming,
          label + ": payload size out of range in " + path);
  std::string file(static_cast<std::size_t>(size), '\0');
  is.seekg(0);
  is.read(file.data(), static_cast<std::streamsize>(size));
  require(static_cast<std::uint64_t>(is.gcount()) == size,
          label + ": cannot read " + path);

  require(file.size() >= format.magic.size() &&
              file.compare(0, format.magic.size(), format.magic) == 0,
          label + ": " + path + " is not a " + std::string(format.kind) +
              " (bad magic)");
  require(file.size() >= kSnapshotHeaderBytes,
          label + ": " + path + " is truncated");
  require(u64_at(file, 8) == format.version,
          label + ": unsupported snapshot version in " + path);
  const std::uint64_t length = u64_at(file, 16);
  require(length <= format.max_payload,
          label + ": payload size out of range in " + path);
  require(size >= length + kFraming, label + ": " + path + " is truncated");
  require(size == length + kFraming,
          label + ": " + path + " has trailing bytes");
  const std::string_view payload(file.data() + kSnapshotHeaderBytes,
                                 static_cast<std::size_t>(length));
  require(u64_at(file, kSnapshotHeaderBytes + payload.size()) ==
              checksum(payload),
          label + ": " + path + " is corrupt (checksum mismatch)");
  return file;
}

}  // namespace sca::common
