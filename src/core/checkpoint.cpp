#include "src/core/checkpoint.hpp"

#include "src/common/check.hpp"
#include "src/common/serialize.hpp"

namespace sca::eval {

using common::require;

namespace {

// Version 4: every count table is dense — key bits, a count-width byte,
// then all its counts at that width. Version 3 stored nonzero (key, count,
// count) triples; older snapshots are rejected.
constexpr common::SnapshotFormat kFormat{
    "SCACKPT1", 4, "checkpoint", "campaign snapshot", std::uint64_t{1} << 40};

// The cursor, totals and timings, and the result and table counts.
constexpr std::size_t kFixedBytes = 106;
// Smallest encodings, for bounding element counts by the bytes left before
// reserving: an empty-named result with no representatives, and a table
// over one key at width 1.
constexpr std::size_t kMinResultBytes = 122;
constexpr std::size_t kMinTableBytes = 4;

void encode_result(std::string& out, const ProbeSetResult& r) {
  common::put_string(out, r.name);
  common::put_u64(out, r.representatives.size());
  for (auto s : r.representatives) common::put_u64(out, s);
  common::put_u64(out, r.observation_bits);
  common::put_u8(out, r.compacted ? 1 : 0);
  common::put_f64(out, r.g.g);
  common::put_u64(out, r.g.df);
  common::put_f64(out, r.g.minus_log10_p);
  common::put_u64(out, r.g.bins);
  common::put_u64(out, r.g.n_fixed);
  common::put_u64(out, r.g.n_random);
  common::put_f64(out, r.t.t);
  common::put_f64(out, r.t.degrees_of_freedom);
  common::put_u64(out, r.t.n_fixed);
  common::put_u64(out, r.t.n_random);
  common::put_f64(out, r.severity);
  common::put_f64(out, r.minus_log10_p);
  common::put_u8(out, r.leaking ? 1 : 0);
}

ProbeSetResult decode_result(common::ByteReader& in) {
  ProbeSetResult r;
  r.name = in.string();
  const std::uint64_t nrep = in.u64();
  require(nrep <= in.remaining() / 8,
          "checkpoint: representative count out of range");
  r.representatives.reserve(static_cast<std::size_t>(nrep));
  for (std::uint64_t i = 0; i < nrep; ++i)
    r.representatives.push_back(static_cast<netlist::SignalId>(in.u64()));
  r.observation_bits = in.u64();
  r.compacted = in.u8() != 0;
  r.g.g = in.f64();
  r.g.df = in.u64();
  r.g.minus_log10_p = in.f64();
  r.g.bins = in.u64();
  r.g.n_fixed = in.u64();
  r.g.n_random = in.u64();
  r.t.t = in.f64();
  r.t.degrees_of_freedom = in.f64();
  r.t.n_fixed = in.u64();
  r.t.n_random = in.u64();
  r.severity = in.f64();
  r.minus_log10_p = in.f64();
  r.leaking = in.u8() != 0;
  return r;
}

std::string encode_payload(const CampaignSnapshot& snap) {
  std::size_t size = kFixedBytes;
  for (const auto& r : snap.finished)
    size += kMinResultBytes + r.name.size() + 8 * r.representatives.size();
  for (const auto& table : snap.sets) size += table.encoded_size();
  std::string out;
  out.reserve(size);
  common::put_u64(out, snap.fingerprint);
  common::put_u64(out, snap.num_chunks);
  common::put_u64(out, snap.batches_total);
  common::put_u64(out, snap.batch_index);
  common::put_u64(out, snap.stages_done);
  common::put_u64(out, snap.streak);
  common::put_u8(out, snap.early_stopped ? 1 : 0);
  common::put_u8(out, snap.complete ? 1 : 0);
  common::put_u64(out, snap.total_cycles);
  common::put_u64(out, snap.simulations_done);
  common::put_f64(out, snap.simulate_seconds);
  common::put_f64(out, snap.accumulate_seconds);
  common::put_f64(out, snap.merge_seconds);
  common::put_u64(out, snap.finished.size());
  for (const auto& r : snap.finished) encode_result(out, r);
  common::put_u64(out, snap.sets.size());
  for (const auto& table : snap.sets) table.encode(out);
  return out;
}

CampaignSnapshot decode_payload(common::ByteReader& in) {
  CampaignSnapshot snap;
  snap.fingerprint = in.u64();
  snap.num_chunks = in.u64();
  snap.batches_total = in.u64();
  snap.batch_index = in.u64();
  snap.stages_done = in.u64();
  snap.streak = in.u64();
  snap.early_stopped = in.u8() != 0;
  snap.complete = in.u8() != 0;
  snap.total_cycles = in.u64();
  snap.simulations_done = in.u64();
  snap.simulate_seconds = in.f64();
  snap.accumulate_seconds = in.f64();
  snap.merge_seconds = in.f64();
  const std::uint64_t nfinished = in.u64();
  require(nfinished <= in.remaining() / kMinResultBytes,
          "checkpoint: finished count out of range");
  snap.finished.reserve(static_cast<std::size_t>(nfinished));
  for (std::uint64_t i = 0; i < nfinished; ++i)
    snap.finished.push_back(decode_result(in));
  const std::uint64_t nsets = in.u64();
  require(nsets <= in.remaining() / kMinTableBytes,
          "checkpoint: set count out of range");
  snap.sets.reserve(static_cast<std::size_t>(nsets));
  for (std::uint64_t i = 0; i < nsets; ++i)
    snap.sets.push_back(stats::FlatCountTable::decode(in));
  return snap;
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const CampaignSnapshot& snapshot) {
  common::save_snapshot(path, kFormat, encode_payload(snapshot));
}

CampaignSnapshot load_checkpoint(const std::string& path) {
  return common::load_snapshot(path, kFormat, decode_payload);
}

}  // namespace sca::eval
