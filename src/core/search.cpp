#include "src/core/search.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/common/serialize.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/lint/linter.hpp"
#include "src/verif/exact.hpp"

namespace sca::eval {

using gadgets::RandomnessPlan;
using netlist::Netlist;

std::vector<const PlanEvaluation*> SearchResult::secure_plans() const {
  std::vector<const PlanEvaluation*> out;
  for (const auto& e : evaluations)
    if (e.secure) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const PlanEvaluation* a, const PlanEvaluation* b) {
              return a->plan.fresh_count() < b->plan.fresh_count();
            });
  return out;
}

std::size_t SearchResult::min_secure_fresh() const {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (const auto& e : evaluations)
    if (e.secure) best = std::min(best, e.plan.fresh_count());
  return best;
}

PlanEvaluation evaluate_kron1_plan(const RandomnessPlan& plan,
                                   const SearchOptions& options) {
  Netlist nl;
  const std::vector<gadgets::Bus> shares = {
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares, plan);

  PlanEvaluation eval{plan, false, false, 0.0, "", false};
  if (options.lint_prefilter) {
    lint::LintOptions lint_options;
    lint_options.model = options.model == ProbeModel::kGlitchTransition
                             ? lint::LintModel::kGlitchTransition
                             : lint::LintModel::kGlitch;
    lint_options.threads = options.threads;
    const lint::LintReport report = lint::run_lint(nl, lint_options);
    if (!report.clean()) {
      eval.lint_rejected = true;
      eval.worst_probe = report.findings.front().probe_name;
      return eval;
    }
  }
  if (options.model == ProbeModel::kGlitch && options.prefer_exact) {
    verif::ExactOptions exact_options;
    exact_options.threads = options.threads;
    const verif::ExactReport report =
        verif::verify_first_order_glitch(nl, exact_options);
    eval.exact = true;
    eval.secure = !report.any_leak && !report.any_skipped;
    for (const auto* leak : report.leaking()) {
      eval.severity = leak->max_tv_distance;
      eval.worst_probe = leak->name;
      break;
    }
    return eval;
  }

  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.order = 1;
  campaign.simulations = options.simulations;
  campaign.seed = options.seed;
  campaign.threshold = options.threshold;
  campaign.threads = options.threads;
  // The fixed value must be the zero-value corner: the Kronecker's entire
  // reason to exist, and where the paper's leaks show.
  campaign.fixed_values[0] = 0x00;
  const CampaignResult result = run_fixed_vs_random(nl, campaign);
  eval.secure = result.pass;
  eval.severity = result.max_minus_log10_p;
  if (!result.results.empty()) eval.worst_probe = result.results.front().name;
  return eval;
}

namespace {

// Evaluates every candidate in parallel, one worker per plan, each
// evaluation single-threaded (the pool is spent across candidates). Results
// land in candidate order, so the search outcome is identical for any
// thread count.
SearchResult evaluate_candidates(std::vector<RandomnessPlan> candidates,
                                 const SearchOptions& options) {
  SearchOptions per_plan = options;
  per_plan.threads = 1;
  SearchResult result;
  result.evaluations.reserve(candidates.size());
  for (const RandomnessPlan& plan : candidates)
    result.evaluations.push_back(
        PlanEvaluation{plan, false, false, 0.0, "", false});
  common::parallel_for(candidates.size(), options.threads, [&](std::size_t i) {
    result.evaluations[i] = evaluate_kron1_plan(candidates[i], per_plan);
  });
  for (const PlanEvaluation& e : result.evaluations)
    (e.lint_rejected ? result.lint_rejected : result.expensive_evaluations)++;
  return result;
}

}  // namespace

SearchResult search_r7_reuse(const SearchOptions& options) {
  std::vector<RandomnessPlan> candidates;
  // r7 fresh (the 7-bit baseline).
  candidates.push_back(RandomnessPlan::kron1_full_fresh());
  // r7 = r_i for i = 1..6.
  for (unsigned i = 1; i <= 6; ++i) {
    std::vector<gadgets::MaskSlotExpr> slots;
    for (unsigned k = 0; k < 6; ++k)
      slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << k, false});
    slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << (i - 1), false});
    candidates.emplace_back(common::make_name("kron1/search-r7-is-r", i), 6,
                            std::move(slots));
  }
  return evaluate_candidates(std::move(candidates), options);
}

SearchResult search_all_partitions(const SearchOptions& options,
                                   std::size_t max_fresh) {
  // Restricted growth strings over 7 slots enumerate set partitions up to
  // renaming of fresh bits.
  std::vector<RandomnessPlan> candidates;
  std::vector<unsigned> assignment(7, 0);
  while (true) {
    const unsigned used =
        *std::max_element(assignment.begin(), assignment.end()) + 1;
    if (!max_fresh || used <= max_fresh) {
      std::vector<gadgets::MaskSlotExpr> slots;
      for (unsigned a : assignment)
        slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << a, false});
      std::string name = "kron1/partition-";
      for (unsigned a : assignment) name += static_cast<char>('0' + a);
      candidates.emplace_back(name, used, std::move(slots));
    }
    // Next restricted growth string.
    int i = 6;
    for (; i >= 1; --i) {
      const unsigned prefix_max =
          *std::max_element(assignment.begin(), assignment.begin() + i);
      if (assignment[i] <= prefix_max) {
        ++assignment[i];
        for (std::size_t j = i + 1; j < 7; ++j) assignment[j] = 0;
        break;
      }
    }
    if (i < 1) break;
  }
  return evaluate_candidates(std::move(candidates), options);
}

// --- second-order 13-bit family search ------------------------------------

namespace {

constexpr unsigned kFamilyBits = 13;   // f0..f12 available to upper slots
constexpr std::uint64_t kTriples = 13ull * 12 * 11;  // ordered distinct

// Decodes a gate code in [0, 1716) into an ordered triple of distinct
// values over {0..12}, lexicographically.
std::array<unsigned, 3> decode_triple(std::uint64_t code) {
  const unsigned a = static_cast<unsigned>(code / (12 * 11));
  std::uint64_t rem = code % (12 * 11);
  const unsigned bi = static_cast<unsigned>(rem / 11);
  const unsigned ci = static_cast<unsigned>(rem % 11);
  // Map choice indices through the remaining-value lists.
  std::array<unsigned, 3> out{a, 0, 0};
  unsigned pool_b = 0;
  for (unsigned v = 0; v < kFamilyBits; ++v) {
    if (v == a) continue;
    if (pool_b++ == bi) {
      out[1] = v;
      break;
    }
  }
  unsigned pool_c = 0;
  for (unsigned v = 0; v < kFamilyBits; ++v) {
    if (v == a || v == out[1]) continue;
    if (pool_c++ == ci) {
      out[2] = v;
      break;
    }
  }
  return out;
}

std::uint64_t encode_triple(unsigned a, unsigned b, unsigned c) {
  unsigned bi = 0;
  for (unsigned v = 0; v < b; ++v)
    if (v != a) ++bi;
  unsigned ci = 0;
  for (unsigned v = 0; v < c; ++v)
    if (v != a && v != b) ++ci;
  return (static_cast<std::uint64_t>(a) * 12 + bi) * 11 + ci;
}

Netlist kron2_netlist(const RandomnessPlan& plan) {
  Netlist nl;
  std::vector<gadgets::Bus> shares;
  for (std::size_t i = 0; i < 3; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, netlist::InputRole::kShare, common::make_name("b", i, "_"), 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

SecondOrderCandidateResult evaluate_family13_candidate(
    std::uint64_t index, const SecondOrderSearchOptions& options) {
  const RandomnessPlan plan = kron2_family13_plan(index);
  const Netlist nl = kron2_netlist(plan);
  SecondOrderCandidateResult r;
  r.index = index;
  if (options.lint_prefilter) {
    lint::LintOptions lo;
    lo.model = options.model == ProbeModel::kGlitchTransition
                   ? lint::LintModel::kGlitchTransition
                   : lint::LintModel::kGlitch;
    lo.order = 2;
    lo.max_findings = 1;
    lo.threads = 1;
    const lint::LintReport report = lint::run_lint(nl, lo);
    if (!report.clean()) {
      r.lint_rejected = true;
      r.worst_probe = report.findings.front().probe_name;
      return r;
    }
  }
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.order = options.order;
  campaign.simulations = options.simulations;
  campaign.seed = options.seed;
  campaign.threshold = options.threshold;
  campaign.threads = 1;
  campaign.fixed_values[0] = 0x00;
  const CampaignResult result = run_fixed_vs_random(nl, campaign);
  r.secure = result.pass;
  r.severity = result.max_minus_log10_p;
  if (!result.results.empty()) r.worst_probe = result.results.front().name;
  return r;
}

// --- sweep checkpoint -----------------------------------------------------
// The shared snapshot envelope (common/serialize.hpp) around this sweep's
// own payload: the per-candidate verdict list, tiny compared to campaign
// count tables.

constexpr common::SnapshotFormat kSweepFormat{
    "SCA2SRCH", 1, "search checkpoint", "sweep snapshot",
    std::uint64_t{1} << 32};

// Smallest encoded candidate: index, two flags, severity, empty probe name.
constexpr std::size_t kMinCandidateBytes = 26;

std::uint64_t sweep_fingerprint(const SecondOrderSearchOptions& o) {
  return common::Fnv1a()
      .feed(std::string("kron2-family13"))
      .feed(o.begin)
      .feed(o.end)
      .feed(static_cast<std::uint64_t>(o.chunk))
      .feed(static_cast<std::uint64_t>(o.model))
      .feed(static_cast<std::uint64_t>(o.order))
      .feed(static_cast<std::uint64_t>(o.simulations))
      .feed(o.seed)
      .feed(o.threshold)
      .feed(static_cast<std::uint64_t>(o.lint_prefilter ? 1 : 0))
      // Lint configuration the pre-filter runs with (fixed today, part of
      // the fingerprint so a future knob cannot silently mix sweeps).
      .feed(std::uint64_t{2})  // lint order
      .feed(std::uint64_t{1})  // lint max_findings
      .value();
}

struct SweepSnapshot {
  std::uint64_t fingerprint = 0;
  std::uint64_t chunks_done = 0;
  std::vector<SecondOrderCandidateResult> finished;
};

void save_sweep_checkpoint(const std::string& path,
                           const SweepSnapshot& snap) {
  std::string payload;
  common::put_u64(payload, snap.fingerprint);
  common::put_u64(payload, snap.chunks_done);
  common::put_u64(payload, snap.finished.size());
  for (const SecondOrderCandidateResult& r : snap.finished) {
    common::put_u64(payload, r.index);
    common::put_u8(payload, r.lint_rejected ? 1 : 0);
    common::put_u8(payload, r.secure ? 1 : 0);
    common::put_f64(payload, r.severity);
    common::put_string(payload, r.worst_probe);
  }
  common::save_snapshot(path, kSweepFormat, payload);
}

SweepSnapshot decode_sweep(common::ByteReader& in) {
  SweepSnapshot snap;
  snap.fingerprint = in.u64();
  snap.chunks_done = in.u64();
  const std::uint64_t n = in.u64();
  common::require(n <= in.remaining() / kMinCandidateBytes,
                  "search checkpoint: candidate count out of range");
  snap.finished.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    SecondOrderCandidateResult r;
    r.index = in.u64();
    r.lint_rejected = in.u8() != 0;
    r.secure = in.u8() != 0;
    r.severity = in.f64();
    r.worst_probe = in.string();
    snap.finished.push_back(std::move(r));
  }
  return snap;
}

SweepSnapshot load_sweep_checkpoint(const std::string& path) {
  return common::load_snapshot(path, kSweepFormat, decode_sweep);
}

}  // namespace

std::vector<std::uint64_t> SecondOrderSearchResult::secure_indices() const {
  std::vector<std::uint64_t> out;
  for (const SecondOrderCandidateResult& r : evaluations)
    if (r.secure) out.push_back(r.index);
  return out;
}

std::uint64_t kron2_family13_size() { return kTriples * kTriples * kTriples; }

RandomnessPlan kron2_family13_plan(std::uint64_t index) {
  common::require(index < kron2_family13_size(),
                  "kron2_family13_plan: index out of range");
  const std::uint64_t g7 = index % kTriples;
  const std::uint64_t g6 = (index / kTriples) % kTriples;
  const std::uint64_t g5 = index / (kTriples * kTriples);
  std::vector<gadgets::MaskSlotExpr> slots;
  for (unsigned k = 0; k < 12; ++k)
    slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << k, false});
  for (const std::uint64_t code : {g5, g6, g7})
    for (const unsigned v : decode_triple(code))
      slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << v, false});
  return RandomnessPlan(common::make_name("kron2/family13-", index),
                        kFamilyBits, std::move(slots));
}

std::uint64_t kron2_family13_naive_index() {
  // kron2_naive13: G5 = (f9, f10, f11), G6 = (f3, f4, f5), G7 = (f12, f6, f7).
  return (encode_triple(9, 10, 11) * kTriples + encode_triple(3, 4, 5)) *
             kTriples +
         encode_triple(12, 6, 7);
}

SecondOrderSearchResult search_kron2_family13(
    const SecondOrderSearchOptions& options) {
  SecondOrderSearchOptions o = options;
  if (o.end == 0) o.end = o.begin + o.chunk;
  common::require(o.begin < o.end && o.end <= kron2_family13_size(),
                  "search_kron2_family13: bad candidate window");
  common::require(o.chunk > 0, "search_kron2_family13: chunk must be > 0");
  common::require(o.order >= 1 && o.order <= 2,
                  "search_kron2_family13: order must be 1 or 2");

  const std::uint64_t fingerprint = sweep_fingerprint(o);
  const std::uint64_t total = o.end - o.begin;
  const std::size_t chunks_total =
      static_cast<std::size_t>((total + o.chunk - 1) / o.chunk);

  SweepSnapshot snap;
  snap.fingerprint = fingerprint;
  if (o.resume && !o.checkpoint_path.empty()) {
    snap = load_sweep_checkpoint(o.checkpoint_path);
    common::require(snap.fingerprint == fingerprint,
                    "search_kron2_family13: checkpoint was written by a "
                    "different sweep configuration (fingerprint mismatch)");
    common::require(
        snap.finished.size() ==
            std::min<std::uint64_t>(snap.chunks_done * o.chunk, total),
        "search_kron2_family13: checkpoint candidate count does not match "
        "its chunk progress");
  }

  std::size_t ran = 0;
  for (std::size_t c = snap.chunks_done; c < chunks_total; ++c) {
    if (o.stop_after_chunks && ran >= o.stop_after_chunks) break;
    const std::uint64_t lo = o.begin + c * o.chunk;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + o.chunk, o.end);
    std::vector<SecondOrderCandidateResult> chunk_results(
        static_cast<std::size_t>(hi - lo));
    common::parallel_for(
        chunk_results.size(), o.threads, [&](std::size_t i) {
          chunk_results[i] = evaluate_family13_candidate(lo + i, o);
        });
    for (SecondOrderCandidateResult& r : chunk_results)
      snap.finished.push_back(std::move(r));
    snap.chunks_done = c + 1;
    ++ran;
    if (!o.checkpoint_path.empty())
      save_sweep_checkpoint(o.checkpoint_path, snap);
  }

  SecondOrderSearchResult result;
  result.begin = o.begin;
  result.end = o.end;
  result.evaluations = std::move(snap.finished);
  result.chunks_done = snap.chunks_done;
  result.chunks_total = chunks_total;
  result.complete = snap.chunks_done == chunks_total;
  for (const SecondOrderCandidateResult& r : result.evaluations)
    (r.lint_rejected ? result.lint_rejected : result.expensive_evaluations)++;
  return result;
}

}  // namespace sca::eval
