// Job specifications of the evaluation service — the payload a client
// submits, the unit the daemon schedules, and the input of the verdict
// cache key.
//
// A job bundles a netlist (SNL text, exactly what `evaltool` consumes —
// the randomness plan is part of the netlist wiring) with an evaluation
// configuration: a fixed-vs-random campaign, a static lint pass, or a
// window of the 13-bit second-order family sweep. The spec is the whole
// truth about the requested verdict: two specs with equal canonical
// encodings are guaranteed the same verdict by the engine's determinism
// contract, which is what makes the content-addressed cache sound.
//
// The cache key deliberately EXCLUDES execution knobs that are
// bit-identity-irrelevant by the campaign contract — stage count, worker
// thread count, pacing — so a client re-asking under different staging
// still hits. It INCLUDES every verdict-relevant component: the job kind,
// the raw netlist bytes (any plan change rewires the netlist), model,
// order, statistic, budget, seed, threshold, fixed values, probe scope,
// search window — plus the engine version, so an engine whose statistics
// pipeline changed can never serve a stale verdict.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/core/campaign.hpp"
#include "src/service/json.hpp"

namespace sca::service {

/// Bumped whenever a change could alter any verdict bit (statistics
/// pipeline, PRG addressing, probe enumeration, SNL semantics). Part of
/// every cache key: entries written by other engine versions never hit.
inline constexpr const char* kEngineVersion = "evald-2";

enum class JobKind { kCampaign, kLint, kSearch };

const char* to_string(JobKind kind);

struct JobSpec {
  JobKind kind = JobKind::kCampaign;

  /// SNL netlist text (campaign and lint jobs; unused for search jobs —
  /// the 13-bit family generates its own designs from candidate indices).
  std::string netlist;

  // --- verdict-relevant configuration (all part of the cache key) ---------
  eval::ProbeModel model = eval::ProbeModel::kGlitch;
  unsigned order = 1;
  eval::Statistic statistic = eval::Statistic::kGTest;
  std::size_t simulations = 200'000;  ///< campaign budget / search per-candidate
  std::uint64_t seed = 1;
  double threshold = 7.0;
  std::map<std::uint32_t, std::uint8_t> fixed_values;
  std::string scope;  ///< probe/lint scope filter ("" = whole design)

  /// Lint-job switches.
  bool lint_slice = false;
  bool lint_certify = false;

  /// Search-job window over the 13-bit family index space ([begin, end),
  /// end > begin required) and its static pre-filter.
  std::uint64_t search_begin = 0;
  std::uint64_t search_end = 0;
  bool search_lint_prefilter = true;

  // --- execution knobs (cache-key-exempt: verdict-identical by contract) --
  /// Stage count = ticket granularity: the daemon issues one work ticket
  /// per stage, and a crashed worker costs at most one stage of re-work.
  /// 0 = the daemon's default.
  unsigned stages = 0;
  /// Worker threads inside one ticket (0 = auto).
  unsigned threads = 0;
  /// Search jobs: candidates per checkpoint chunk and chunks per ticket.
  std::size_t search_chunk = 32;
  std::size_t search_chunks_per_ticket = 1;
  /// Pacing: the worker sleeps this long before executing each ticket.
  /// Exists for crash-injection tests and cooperative multi-tenant pacing;
  /// never affects the verdict.
  unsigned throttle_ms = 0;

  /// Wire encoding. from_json validates kinds and ranges and throws
  /// common::Error on malformed specs (the daemon's error reply).
  Json to_json() const;
  static JobSpec from_json(const Json& j);

  /// Canonical FNV-1a cache key over the verdict-relevant fields and the
  /// engine version, as 16 lowercase hex digits.
  std::string cache_key() const;

  /// Campaign options for executing this spec on `nl` — the same mapping
  /// evaltool applies (nonzero-bus annotations drawn from the netlist).
  eval::CampaignOptions campaign_options(const netlist::Netlist& nl) const;
};

}  // namespace sca::service
