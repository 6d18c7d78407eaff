#include "src/lint/linter.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/common/thread_pool.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/slice.hpp"
#include "src/verif/unroll.hpp"

namespace sca::lint {

using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

std::string to_string(LintModel model) {
  switch (model) {
    case LintModel::kGlitch:
      return "glitch";
    case LintModel::kGlitchTransition:
      return "glitch+transition";
  }
  return "?";
}

std::string_view lint_rule_name(LintRule rule) {
  switch (rule) {
    case LintRule::kR1FreshReuse:
      return "R1-fresh-reuse";
    case LintRule::kR2DomainCrossing:
      return "R2-domain-crossing";
    case LintRule::kR3MissingRegister:
      return "R3-missing-register";
    case LintRule::kR4TransitionHazard:
      return "R4-transition-hazard";
    case LintRule::kR5MultiplicativeBlinding:
      return "R5-multiplicative-blinding";
  }
  return "?";
}

namespace {

/// "@t", "@t-1", ... suffix for a value `cycles_back` before the probe.
std::string cycle_suffix(std::size_t cycles_back) {
  if (cycles_back == 0) return "@t";
  return common::make_name("@t-", cycles_back);
}

/// Classifies a flagged glitch-only verdict. Completed sharings drawn at
/// the probe cycle mean share inputs reach the probe combinationally (R3);
/// a residual hazard witnessed by a bit of an annotated nonzero mask bus is
/// the constrained-randomness pattern — the GF(256)* mask blinds
/// multiplicatively but is no XOR pad (R5); otherwise randomness shared
/// between several residual signals is the Eq. (6) pattern (R1); a hazard
/// confined to the signals themselves — typically a single node mixing
/// sibling shares — is a domain crossing (R2).
LintRule classify(const TupleVerdict& verdict) {
  if (verdict.raw_share_path) return LintRule::kR3MissingRegister;
  for (const SharedFresh& sf : verdict.shared_fresh)
    if (sf.nonzero) return LintRule::kR5MultiplicativeBlinding;
  if (!verdict.shared_fresh.empty() && verdict.residual_elements.size() >= 2)
    return LintRule::kR1FreshReuse;
  return LintRule::kR2DomainCrossing;
}

/// Total-variation distance between two equal-total count histograms.
double histogram_tv(const std::vector<std::uint32_t>& p,
                    const std::vector<std::uint32_t>& q) {
  std::uint64_t total = 0, abs_diff_doubled = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    total += p[i];
    abs_diff_doubled += p[i] > q[i] ? (p[i] - q[i]) : (q[i] - p[i]);
  }
  if (total == 0) return 0.0;
  return 0.5 * static_cast<double>(abs_diff_doubled) /
         static_cast<double>(total);
}

/// Builds the counterexample certificate for one flagged probe by replaying
/// it through the exact engine.
LintCertificate make_certificate(const verif::ProbeDistributionEngine& engine,
                                 netlist::SignalId probe) {
  LintCertificate cert;
  const verif::ProbeDistribution dist = engine.distribution(probe);
  cert.secret_bits = dist.secret_bits;
  if (!dist.feasible) {
    cert.unavailable_reason = dist.infeasible_reason;
    return cert;
  }
  if (dist.counts.empty()) {
    cert.unavailable_reason =
        "the probe's observation reaches no complete sharing";
    return cert;
  }
  // Most-distinguishing secret pair.
  std::size_t best_a = 0, best_b = 0;
  double best_tv = 0.0;
  for (std::size_t a = 0; a < dist.counts.size(); ++a)
    for (std::size_t b = a + 1; b < dist.counts.size(); ++b) {
      const double tv = histogram_tv(dist.counts[a], dist.counts[b]);
      if (tv > best_tv) {
        best_tv = tv;
        best_a = a;
        best_b = b;
      }
    }
  if (best_tv == 0.0) {
    cert.unavailable_reason =
        "exact distributions are identical for every secret value — the "
        "finding is a lattice over-approximation";
    return cert;
  }
  // Observation value where secret_a's count exceeds secret_b's (one always
  // exists when the distance is positive, since totals are equal).
  std::size_t best_obs = 0;
  std::int64_t best_diff = 0;
  for (std::size_t o = 0; o < dist.counts[best_a].size(); ++o) {
    const std::int64_t diff =
        static_cast<std::int64_t>(dist.counts[best_a][o]) -
        static_cast<std::int64_t>(dist.counts[best_b][o]);
    if (diff > best_diff) {
      best_diff = diff;
      best_obs = o;
    }
  }
  cert.secret_a = best_a;
  cert.secret_b = best_b;
  cert.tv_distance = best_tv;
  cert.observation = best_obs;
  cert.count_a = dist.counts[best_a][best_obs];
  cert.count_b = dist.counts[best_b][best_obs];
  cert.assignment = engine.preimage(probe, best_a, best_obs);
  cert.available = true;
  return cert;
}

/// Analyzes every deduplicated probe (or probe pair) of the pipeline
/// `work` and appends the findings and counters to `report`. Everything the
/// analysis builds (unrolling, supports, analyzer, work items) is released
/// on return, before certification builds its own exact engines.
void analyze_probes(const Netlist& work, const std::vector<SignalId>& held,
                    std::size_t depth, const LintOptions& options,
                    LintReport& report) {
  const bool transition = options.model == LintModel::kGlitchTransition;
  // +1 cycle so the probe cycle is past the pipeline's cold start, +1 more
  // so the transition-extended previous cycle is too.
  const std::size_t cycles = depth + 1 + (transition ? 1 : 0);
  const verif::Unrolled unrolled = verif::unroll(work, cycles, held);
  const netlist::StableSupport supports(work);
  const TupleAnalyzer analyzer(work, unrolled, options.threads);

  // Deduplicated probe universe, same semantics as eval's
  // build_probe_universe (not reused to keep lint independent of core):
  // probes observing identical stable sets collapse, named representatives
  // preferred.
  std::map<std::vector<SignalId>, SignalId> unique;
  for (SignalId id = 0; id < work.size(); ++id) {
    const GateKind k = work.kind(id);
    if (k == GateKind::kConst0 || k == GateKind::kConst1) continue;
    if (!options.scope_filter.empty() || !options.scope_contains.empty()) {
      const auto name = work.explicit_name(id);
      if (!name) continue;
      if (!options.scope_filter.empty() &&
          name->rfind(options.scope_filter, 0) != 0)
        continue;
      if (!options.scope_contains.empty() &&
          name->find(options.scope_contains) == std::string::npos)
        continue;
    }
    std::vector<SignalId> observed;
    for (std::size_t idx : supports.support(id).set_bits())
      observed.push_back(supports.stable_points()[idx]);
    if (observed.empty()) continue;
    auto [it, inserted] = unique.try_emplace(std::move(observed), id);
    if (!inserted && !work.explicit_name(it->second) &&
        work.explicit_name(id))
      it->second = id;
  }

  const std::size_t probe_cycle = analyzer.probe_cycle();

  std::vector<std::vector<SignalId>> probe_obs;
  std::vector<SignalId> probe_rep;
  probe_obs.reserve(unique.size());
  probe_rep.reserve(unique.size());
  for (const auto& [observed, representative] : unique) {
    probe_obs.push_back(observed);
    probe_rep.push_back(representative);
  }
  report.probes_checked = probe_obs.size();

  // The unit of analysis: one probe (order 1, or the one-probe-universe
  // fallback at order 2) or the sorted union of a pair's observation sets.
  constexpr std::size_t kNoProbe = std::numeric_limits<std::size_t>::max();
  struct WorkItem {
    std::vector<SignalId> observed;  // sorted union the tuple is built from
    std::size_t a = 0;               // first probe index into probe_rep
    std::size_t b = kNoProbe;        // second probe index (order-2 pairs)
  };
  std::vector<WorkItem> items;
  if (options.order == 1 || probe_obs.size() == 1) {
    items.reserve(probe_obs.size());
    for (std::size_t i = 0; i < probe_obs.size(); ++i)
      items.push_back({probe_obs[i], i, kNoProbe});
  } else {
    // Pairs in lexicographic (i, j) order, deduplicated by union observation
    // set: coinciding unions are statistically identical, so the first pair
    // is the canonical representative and later hits only bump the counter.
    // With pair_cache off every pair is analyzed (the findings are still
    // canonicalized at assembly below, so the report is identical).
    report.pairs_enumerated = probe_obs.size() * (probe_obs.size() - 1) / 2;
    std::map<std::vector<SignalId>, std::size_t> canon;
    for (std::size_t i = 0; i < probe_obs.size(); ++i)
      for (std::size_t j = i + 1; j < probe_obs.size(); ++j) {
        std::vector<SignalId> united;
        united.reserve(probe_obs[i].size() + probe_obs[j].size());
        std::set_union(probe_obs[i].begin(), probe_obs[i].end(),
                       probe_obs[j].begin(), probe_obs[j].end(),
                       std::back_inserter(united));
        if (options.pair_cache) {
          if (canon.find(united) != canon.end()) {
            ++report.pairs_deduped;
            continue;
          }
          canon.emplace(united, items.size());
        }
        items.push_back({std::move(united), i, j});
      }
  }

  // A transition-extended flag can be inherited from the glitch model (then
  // the glitch verdict carries the sharper witness) or genuinely need the
  // previous cycle — only the latter is an R4. So a flagged item under
  // glitch+transition also gets its glitch-only subtuple analyzed, here in
  // the analysis pass rather than in the serial assembly below.
  std::vector<TupleVerdict> verdicts(items.size());
  std::vector<TupleVerdict> glitch_verdicts(transition ? items.size() : 0);
  auto analyze_item = [&](std::size_t k) {
    const std::vector<SignalId>& observed = items[k].observed;
    std::vector<TupleElement> tuple;
    tuple.reserve(observed.size() * (transition ? 2 : 1));
    for (const SignalId s : observed) tuple.push_back({s, 0});
    if (transition)
      for (const SignalId s : observed) tuple.push_back({s, 1});
    verdicts[k] = analyzer.analyze(tuple);
    if (transition && !verdicts[k].secure) {
      tuple.resize(observed.size());
      glitch_verdicts[k] = analyzer.analyze(tuple);
    }
  };

  std::size_t analyzed = items.size();
  if (options.max_findings) {
    // Deterministic serial sweep with early exit: the prefilter only asks
    // "is there any finding?", so the first flagged set ends the scan.
    std::size_t flagged = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      analyze_item(k);
      if (!verdicts[k].secure && ++flagged >= options.max_findings) {
        analyzed = k + 1;
        report.truncated = analyzed < items.size();
        break;
      }
    }
  } else {
    common::parallel_for(items.size(), options.threads, analyze_item);
  }

  // Canonicalization map for the pair_cache-off path: only the first pair
  // with a given union contributes (findings *and* counters), so the report
  // is bit-identical to the cached one.
  std::map<std::vector<SignalId>, std::size_t> emitted;
  for (std::size_t item_index = 0; item_index < analyzed; ++item_index) {
    const WorkItem& item = items[item_index];
    const std::vector<SignalId>& observed = item.observed;
    const SignalId representative = probe_rep[item.a];
    const TupleVerdict& verdict = verdicts[item_index];
    if (!options.pair_cache && item.b != kNoProbe) {
      if (emitted.find(observed) != emitted.end()) {
        ++report.pairs_deduped;
        continue;
      }
      emitted.emplace(observed, item_index);
    }
    report.cuts_applied += verdict.cuts_applied;
    if (verdict.secure) continue;
    ++report.probes_flagged;

    LintRule rule;
    const TupleVerdict* witness = &verdict;
    if (transition) {
      const TupleVerdict& glitch_verdict = glitch_verdicts[item_index];
      if (glitch_verdict.secure) {
        rule = LintRule::kR4TransitionHazard;
      } else {
        rule = classify(glitch_verdict);
        witness = &glitch_verdict;
      }
    } else {
      rule = classify(verdict);
    }

    LintFinding finding;
    finding.rule = rule;
    finding.probe = representative;
    finding.probe_name = work.signal_name(representative);
    if (item.b != kNoProbe) {
      finding.probe2 = probe_rep[item.b];
      finding.probe2_name = work.signal_name(finding.probe2);
    }
    for (const std::size_t e : witness->residual_elements) {
      const std::size_t back = e / observed.size();  // 0 = probe cycle
      finding.offending.push_back(
          work.signal_name(observed[e % observed.size()]) +
          cycle_suffix(back));
    }
    for (const SharedFresh& sf : witness->shared_fresh)
      finding.shared_fresh.push_back(work.signal_name(sf.input) +
                                     cycle_suffix(probe_cycle - sf.cycle));
    for (const CompletedSharing& c : witness->completed)
      finding.completed.push_back(common::make_name(
          work.secret_group_name(c.secret), ".b", c.bit,
          cycle_suffix(probe_cycle - c.cycle)));

    std::ostringstream msg;
    msg << lint_rule_name(rule) << ": probe " << finding.probe_name;
    if (!finding.probe2_name.empty()) msg << " & " << finding.probe2_name;
    msg << " completes ";
    for (std::size_t i = 0; i < finding.completed.size(); ++i)
      msg << (i ? ", " : "") << finding.completed[i];
    if (!finding.offending.empty()) {
      msg << " via ";
      for (std::size_t i = 0; i < finding.offending.size(); ++i)
        msg << (i ? ", " : "") << finding.offending[i];
    }
    if (!finding.shared_fresh.empty()) {
      msg << " (shared fresh ";
      for (std::size_t i = 0; i < finding.shared_fresh.size(); ++i)
        msg << (i ? ", " : "") << finding.shared_fresh[i];
      msg << ")";
    }
    finding.message = msg.str();
    report.findings.push_back(std::move(finding));
  }
}

/// Attaches an exact counterexample certificate to every finding: each is
/// replayed through the exact engine built over the same (possibly sliced)
/// netlist. One engine per probing model amortizes the unrolling; the
/// per-finding enumerations run in parallel.
void certify_findings(const Netlist& work, const std::vector<SignalId>& held,
                      const LintOptions& options, LintReport& report) {
  // Order-2 findings replay through a copy of the (possibly sliced)
  // netlist where every flagged pair gets an AND combiner: the combiner's
  // glitch-extended cone is exactly the pair's union observation, so the
  // unchanged single-probe exact engine certifies the joint distribution.
  // Signal ids are preserved by the copy, so order-1 findings keep their
  // probe id on the same netlist and one engine per model serves both.
  Netlist pair_nl;
  const Netlist* cert_nl = &work;
  std::vector<SignalId> cert_probe(report.findings.size());
  bool any_pair = false;
  for (const LintFinding& f : report.findings)
    any_pair = any_pair || f.probe2 != netlist::kNoSignal;
  if (any_pair) {
    pair_nl = work;
    cert_nl = &pair_nl;
  }
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const LintFinding& f = report.findings[i];
    cert_probe[i] = f.probe2 == netlist::kNoSignal
                        ? f.probe
                        : pair_nl.and_(f.probe, f.probe2);
  }
  verif::ExactOptions base = options.certify_options;
  base.held_inputs = held;
  base.cycles = 0;  // managed here: minimum sound depth per model
  bool need_glitch = false, need_transition = false;
  for (const LintFinding& f : report.findings)
    (f.rule == LintRule::kR4TransitionHazard ? need_transition : need_glitch) =
        true;
  std::optional<verif::ProbeDistributionEngine> glitch_engine;
  std::optional<verif::ProbeDistributionEngine> transition_engine;
  if (need_glitch) {
    verif::ExactOptions o = base;
    o.transitions = false;
    glitch_engine.emplace(*cert_nl, o);
  }
  if (need_transition) {
    verif::ExactOptions o = base;
    o.transitions = true;
    transition_engine.emplace(*cert_nl, o);
  }
  common::parallel_for(
      report.findings.size(), options.threads, [&](std::size_t i) {
        LintFinding& f = report.findings[i];
        const verif::ProbeDistributionEngine& engine =
            f.rule == LintRule::kR4TransitionHazard ? *transition_engine
                                                    : *glitch_engine;
        f.certificate = make_certificate(engine, cert_probe[i]);
      });
}

}  // namespace

std::pair<Netlist, SignalId> pair_probe_netlist(const Netlist& nl, SignalId a,
                                                SignalId b) {
  Netlist out = nl;
  const SignalId combiner = out.and_(a, b);
  out.name_signal(combiner, "lint2.pair(" + nl.signal_name(a) + "&" +
                                nl.signal_name(b) + ")");
  return {std::move(out), combiner};
}

LintReport run_lint(const Netlist& nl, const LintOptions& options) {
  common::require(options.order >= 1 && options.order <= 2,
                  "lint: supported orders are 1 and 2");
  // Feedback handling. kReject keeps the pipeline-only contract (the
  // sequential_depth error propagates, same as verif::exact); kSlice cuts a
  // feedback design at its state registers and lints the slice, with the
  // cut inputs *held* across the unroll window like the registers they
  // replace.
  std::optional<netlist::Slice> slice;
  const Netlist* work = &nl;
  std::vector<SignalId> held;
  std::size_t depth = 0;
  if (options.feedback == FeedbackMode::kSlice) {
    bool feedback = false;
    try {
      depth = verif::sequential_depth(nl);
    } catch (const common::Error&) {
      feedback = true;
    }
    if (feedback) {
      slice.emplace(netlist::extract_slice(nl));
      work = &slice->nl;
      held = slice->held_inputs;
      depth = verif::sequential_depth(*work);
    }
  } else {
    depth = verif::sequential_depth(nl);
  }

  LintReport report;
  report.model = options.model;
  report.order = options.order;
  report.sliced = slice.has_value();
  report.cut_registers = slice ? slice->cuts.size() : 0;
  analyze_probes(*work, held, depth, options, report);
  if (options.certify && !report.findings.empty())
    certify_findings(*work, held, options, report);
  return report;
}

std::string to_string(const LintReport& report) {
  std::ostringstream out;
  out << "lint[" << to_string(report.model) << ", order " << report.order
      << "]: " << report.probes_checked << " probes, ";
  if (report.order >= 2)
    out << report.pairs_enumerated << " pairs (" << report.pairs_deduped
        << " union-deduped), ";
  out << report.probes_flagged << " flagged, " << report.cuts_applied
      << " OTP cuts";
  if (report.truncated) out << " (truncated)";
  if (report.sliced)
    out << " (feedback sliced at " << report.cut_registers
        << " state registers)";
  out << " — " << (report.clean() ? "CLEAN" : "FLAGGED") << "\n";
  for (const LintFinding& f : report.findings) {
    out << "  " << f.message;
    if (f.certificate) {
      if (f.certificate->available)
        out << " [certified: secrets " << f.certificate->secret_a << " vs "
            << f.certificate->secret_b << ", tv=" << f.certificate->tv_distance
            << "]";
      else
        out << " [no certificate: " << f.certificate->unavailable_reason << "]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace sca::lint
