#include "src/core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/check.hpp"
#include "src/common/serialize.hpp"

namespace sca::eval {

using common::require;

namespace {

constexpr char kMagic[8] = {'S', 'C', 'A', 'C', 'K', 'P', 'T', '1'};
// Version 3: every in-progress accumulator is a count table (key bits plus
// nonzero (key, count, count) triples) — t-test sets included, which
// version 2 stored as Welford moments — and tables carry no storage mode,
// bin limit or overflow bin. Version-2 snapshots are rejected.
constexpr std::uint64_t kVersion = 3;

// Caps on vector lengths read from disk, so a corrupted count cannot
// trigger an absurd allocation before the checksum check would catch it.
constexpr std::uint64_t kMaxSets = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxRepresentatives = std::uint64_t{1} << 16;

void write_result(std::ostream& os, const ProbeSetResult& r) {
  common::write_string(os, r.name);
  common::write_u64(os, r.representatives.size());
  for (auto s : r.representatives) common::write_u64(os, s);
  common::write_u64(os, r.observation_bits);
  common::write_u8(os, r.compacted ? 1 : 0);
  common::write_f64(os, r.g.g);
  common::write_u64(os, r.g.df);
  common::write_f64(os, r.g.minus_log10_p);
  common::write_u64(os, r.g.bins);
  common::write_u64(os, r.g.n_fixed);
  common::write_u64(os, r.g.n_random);
  common::write_f64(os, r.t.t);
  common::write_f64(os, r.t.degrees_of_freedom);
  common::write_u64(os, r.t.n_fixed);
  common::write_u64(os, r.t.n_random);
  common::write_f64(os, r.severity);
  common::write_f64(os, r.minus_log10_p);
  common::write_u8(os, r.leaking ? 1 : 0);
}

ProbeSetResult read_result(std::istream& is) {
  ProbeSetResult r;
  r.name = common::read_string(is);
  const std::uint64_t nrep = common::read_u64(is);
  require(nrep <= kMaxRepresentatives,
          "checkpoint: representative count out of range");
  r.representatives.reserve(static_cast<std::size_t>(nrep));
  for (std::uint64_t i = 0; i < nrep; ++i)
    r.representatives.push_back(
        static_cast<netlist::SignalId>(common::read_u64(is)));
  r.observation_bits = common::read_u64(is);
  r.compacted = common::read_u8(is) != 0;
  r.g.g = common::read_f64(is);
  r.g.df = common::read_u64(is);
  r.g.minus_log10_p = common::read_f64(is);
  r.g.bins = common::read_u64(is);
  r.g.n_fixed = common::read_u64(is);
  r.g.n_random = common::read_u64(is);
  r.t.t = common::read_f64(is);
  r.t.degrees_of_freedom = common::read_f64(is);
  r.t.n_fixed = common::read_u64(is);
  r.t.n_random = common::read_u64(is);
  r.severity = common::read_f64(is);
  r.minus_log10_p = common::read_f64(is);
  r.leaking = common::read_u8(is) != 0;
  return r;
}

void write_payload(std::ostream& os, const CampaignSnapshot& snap) {
  common::write_u64(os, snap.fingerprint);
  common::write_u64(os, snap.num_chunks);
  common::write_u64(os, snap.batches_total);
  common::write_u64(os, snap.batch_index);
  common::write_u64(os, snap.stages_done);
  common::write_u64(os, snap.streak);
  common::write_u8(os, snap.early_stopped ? 1 : 0);
  common::write_u8(os, snap.complete ? 1 : 0);
  common::write_u64(os, snap.total_cycles);
  common::write_u64(os, snap.simulations_done);
  common::write_f64(os, snap.simulate_seconds);
  common::write_f64(os, snap.accumulate_seconds);
  common::write_f64(os, snap.merge_seconds);
  common::write_u64(os, snap.finished.size());
  for (const auto& r : snap.finished) write_result(os, r);
  common::write_u64(os, snap.sets.size());
  for (const auto& table : snap.sets) table.serialize(os);
}

CampaignSnapshot read_payload(std::istream& is) {
  CampaignSnapshot snap;
  snap.fingerprint = common::read_u64(is);
  snap.num_chunks = common::read_u64(is);
  snap.batches_total = common::read_u64(is);
  snap.batch_index = common::read_u64(is);
  snap.stages_done = common::read_u64(is);
  snap.streak = common::read_u64(is);
  snap.early_stopped = common::read_u8(is) != 0;
  snap.complete = common::read_u8(is) != 0;
  snap.total_cycles = common::read_u64(is);
  snap.simulations_done = common::read_u64(is);
  snap.simulate_seconds = common::read_f64(is);
  snap.accumulate_seconds = common::read_f64(is);
  snap.merge_seconds = common::read_f64(is);
  const std::uint64_t nfinished = common::read_u64(is);
  require(nfinished <= kMaxSets, "checkpoint: finished count out of range");
  snap.finished.reserve(static_cast<std::size_t>(nfinished));
  for (std::uint64_t i = 0; i < nfinished; ++i)
    snap.finished.push_back(read_result(is));
  const std::uint64_t nsets = common::read_u64(is);
  require(nsets <= kMaxSets, "checkpoint: set count out of range");
  snap.sets.reserve(static_cast<std::size_t>(nsets));
  for (std::uint64_t i = 0; i < nsets; ++i)
    snap.sets.push_back(stats::FlatCountTable::deserialize(is));
  return snap;
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const CampaignSnapshot& snapshot) {
  std::ostringstream payload;
  write_payload(payload, snapshot);
  const std::string bytes = payload.str();
  const std::uint64_t checksum =
      common::Fnv1a().feed_bytes(bytes.data(), bytes.size()).value();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    require(os.good(), "checkpoint: cannot open " + tmp + " for writing");
    os.write(kMagic, sizeof(kMagic));
    common::write_u64(os, kVersion);
    common::write_u64(os, bytes.size());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    common::write_u64(os, checksum);
    os.flush();
    require(os.good(), "checkpoint: write to " + tmp + " failed");
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "checkpoint: rename to " + path + " failed");
}

CampaignSnapshot load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "checkpoint: cannot open " + path);
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(kMagic));
  require(is.gcount() == sizeof(kMagic) &&
              std::equal(magic, magic + sizeof(kMagic), kMagic),
          "checkpoint: " + path + " is not a campaign snapshot (bad magic)");
  const std::uint64_t version = common::read_u64(is);
  require(version == kVersion,
          "checkpoint: unsupported snapshot version in " + path);
  const std::uint64_t size = common::read_u64(is);
  require(size <= (std::uint64_t{1} << 40),
          "checkpoint: payload size out of range in " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(size));
  require(static_cast<std::uint64_t>(is.gcount()) == size,
          "checkpoint: " + path + " is truncated");
  const std::uint64_t checksum = common::read_u64(is);
  const std::uint64_t actual =
      common::Fnv1a().feed_bytes(bytes.data(), bytes.size()).value();
  require(checksum == actual,
          "checkpoint: " + path + " is corrupt (checksum mismatch)");

  std::istringstream payload(bytes);
  CampaignSnapshot snap = read_payload(payload);
  // The payload must be consumed exactly: trailing bytes mean a malformed
  // writer or silent corruption the field reads happened to tolerate.
  payload.peek();
  require(payload.eof(), "checkpoint: " + path + " has trailing bytes");
  return snap;
}

}  // namespace sca::eval
