// Static leakage linter: rule-based netlist analysis that flags
// randomness-reuse and glitch/transition hazards without simulation.
//
// The linter is the third evaluation backend next to the sampling campaign
// (core/campaign) and the exact enumerative verifier (verif/exact): it
// derives verdicts from the circuit graph alone, in the spirit of
// aLEAKator and the masked-arithmetic verification line, so it is *instant*
// — no simulations, no per-probe enumeration — and usable as a pre-filter
// in front of both expensive engines (eval::SearchOptions::lint_prefilter).
//
// Every deduplicated glitch-extended probe (optionally transition-extended)
// is checked with the distribution-type lattice of lint/lattice.hpp; a
// probe the analysis cannot prove independent of the secrets becomes one
// finding, classified by the concrete hazard rules of the paper's analysis:
//
//   R1 fresh-mask reuse     two mask slots share a fresh bit and their
//                           glitch-extended cones meet at a combinational
//                           node — Eq. (6)'s r1 = r3 observed at v1..v4
//                           inside G7.
//   R2 domain crossing      a single observed signal mixes every share of
//                           a secret bit before its register stage (e.g.
//                           an inner-domain DOM product fed with sibling
//                           masks).
//   R3 missing register     share inputs reach the probe through purely
//                           combinational paths — nonlinear logic consumed
//                           by the next layer without a register boundary.
//   R4 transition hazard    the probe is clean under the glitch rules but
//                           flagged once the previous cycle's values are
//                           observed too (Eq. (9)'s r5 = r4 reuse, the
//                           paper's Section IV).
//   R5 multiplicative       the residual hazard involves a bit of an
//      blinding             annotated GF(256)* mask bus: the mask blinds
//                           multiplicatively but is *not* an XOR pad (its
//                           bits are biased and byte-correlated), so the
//                           protection the designer intended does not apply
//                           on this path — the paper's x = 0 / constrained-
//                           randomness caveat for multiplicative masking.
//
// Soundness scope: a clean lint verdict is a *proof* of probing security at
// the requested order under the analysis' model: fresh inputs independent
// of the secrets, fresh re-sharing per cycle, and — via the support-
// annotation sublattice of lint/lattice.hpp — randomness that is either
// uniform or annotated constrained-uniform over GF(256)*. Nonzero-
// constrained bits are never used as XOR pads; their blinding power is
// recovered only through exhaustively re-verified byte-level gadget rules
// (product families, multipliers, inverse/square), so whole designs with
// multiplicative conversions lint without scope fences. A finding is a
// potential hazard, not a counterexample — precision is validated against
// verif::exact (which replays certificates under the same constrained
// distribution, verif::ExactOptions::honor_nonzero_buses) over the paper's
// plan spaces in tests/lint_test.cpp; see DESIGN.md for what the linter can
// and cannot conclude vs PROLEAD.
//
// Order 2 (LintOptions::order = 2) analyzes probe *pairs*: the adversary's
// joint observation is the union of the two probes' extended cones, so the
// same (L,N) lattice + OTP elimination runs on the union tuple. Pairs whose
// unions coincide are statistically identical and collapse onto one
// canonical finding (union-observation dedup); a clean order-2 report
// proves every pair's joint distribution independent of the secrets, which
// subsumes order 1 by subset monotonicity.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lint/lattice.hpp"
#include "src/netlist/ir.hpp"
#include "src/verif/exact.hpp"

namespace sca::lint {

enum class LintModel {
  kGlitch,            ///< glitch-extended probes (one cycle)
  kGlitchTransition,  ///< glitch- and transition-extended (two cycles)
};

std::string to_string(LintModel model);

enum class LintRule {
  kR1FreshReuse,
  kR2DomainCrossing,
  kR3MissingRegister,
  kR4TransitionHazard,
  kR5MultiplicativeBlinding,
};

/// Short stable identifier: "R1-fresh-reuse", "R2-domain-crossing", ...
std::string_view lint_rule_name(LintRule rule);

/// What to do with a netlist whose registers loop (the AES state/key banks
/// and controller): reject like the exact verifier, or cut the feedback at
/// annotated/inferred state registers (netlist::extract_slice) and lint the
/// feedback-free slice with held cut inputs.
enum class FeedbackMode {
  kReject,
  kSlice,
};

struct LintOptions {
  LintModel model = LintModel::kGlitch;
  /// Probing order: 1 checks every deduplicated probe alone, 2 checks every
  /// probe *pair* on the union of the two observation cones (which subsumes
  /// order 1 whenever the universe has at least two probes; a one-probe
  /// universe falls back to the single probe).
  unsigned order = 1;
  /// Order 2 only: reuse the verdict of a previously-analyzed pair whose
  /// union observation set coincides (canonical cache). Findings are
  /// canonicalized per union either way — the toggle only controls whether
  /// duplicate unions are re-analyzed, and exists so tests can assert the
  /// dedup changes nothing.
  bool pair_cache = true;
  /// Stop after this many findings (0 = report all). The scan degrades to a
  /// deterministic serial sweep in probe/pair order, so the prefilter use
  /// (max_findings = 1: "is there any finding?") exits on the first hazard
  /// without paying for the full universe. LintReport::truncated records
  /// that the sweep stopped early.
  std::size_t max_findings = 0;
  /// Only probe signals whose hierarchical name starts with this prefix
  /// (same semantics as the campaign's probe_scope_filter).
  std::string scope_filter;
  /// Only probe signals whose hierarchical name *contains* this substring
  /// (ANDed with scope_filter) — e.g. ".kron." selects the uniform-fresh
  /// Kronecker subtrees of all 20 Sbox instances inside the masked AES.
  std::string scope_contains;
  /// Register-feedback handling; kReject preserves the pipeline-only
  /// behaviour (and its common::Error).
  FeedbackMode feedback = FeedbackMode::kReject;
  /// Attach a counterexample certificate to every finding by replaying the
  /// flagged probe through verif::exact — two secret values with provably
  /// different observation distributions plus a concrete mask assignment.
  bool certify = false;
  /// Enumeration limits for certification (cycles/transitions/held_inputs
  /// are managed by the linter).
  verif::ExactOptions certify_options;
  /// Worker threads for gadget re-verification, the probe analysis (unless
  /// max_findings makes it a serial sweep) and certification (0 =
  /// SCA_THREADS env, else hardware concurrency).
  unsigned threads = 0;
};

/// Machine-checkable counterexample attached to a finding: secret values
/// `secret_a` / `secret_b` (over `secret_bits`) whose exact observation
/// distributions differ, an observation value where the counts differ, and
/// a full input assignment reproducing that observation under `secret_a`.
struct LintCertificate {
  bool available = false;
  /// Why no certificate exists ("" when available): enumeration limits, or
  /// identical exact distributions (the lint finding over-approximates).
  std::string unavailable_reason;
  std::vector<std::string> secret_bits;
  std::uint64_t secret_a = 0;
  std::uint64_t secret_b = 0;
  /// Largest total-variation distance between two secret-conditioned
  /// distributions (> 0 exactly when the probe really leaks).
  double tv_distance = 0.0;
  /// Observation value with count_a > count_b under secret_a vs secret_b.
  std::uint64_t observation = 0;
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
  /// Unrolled input name -> value reproducing `observation` under secret_a.
  std::vector<std::pair<std::string, bool>> assignment;
};

struct LintFinding {
  LintRule rule = LintRule::kR1FreshReuse;
  /// Probe signal id — in the linted netlist, i.e. the *slice* netlist when
  /// the report says sliced (names are preserved across the cut, so
  /// probe_name always matches the original design's hierarchy).
  netlist::SignalId probe = netlist::kNoSignal;
  std::string probe_name;  ///< representative signal, e.g. "kron.G7.inner0"
  /// Second probe of an order-2 finding (kNoSignal for order-1 findings and
  /// the one-probe-universe fallback). The pair is the lexicographically
  /// first one whose union observation set exhibits the hazard; later pairs
  /// with the same union are folded into this finding.
  netlist::SignalId probe2 = netlist::kNoSignal;
  std::string probe2_name;
  /// Residual observed signals the hazard lives in, "name@t[-k]" form.
  std::vector<std::string> offending;
  /// Fresh bits shared between offending signals ("f0@t-2"), R1/R4.
  std::vector<std::string> shared_fresh;
  /// Completed sharing instances, "secret0.bit1@t-2" form; cut-register
  /// sharings use the transferred state-group name ("aes.st3.b1@t-5").
  std::vector<std::string> completed;
  std::string message;  ///< one-line human-readable summary
  /// Present when LintOptions::certify was set.
  std::optional<LintCertificate> certificate;
};

struct LintReport {
  std::vector<LintFinding> findings;
  LintModel model = LintModel::kGlitch;
  unsigned order = 1;
  std::size_t probes_checked = 0;  ///< deduplicated probe positions
  /// Flagged probe sets (order 1: probes; order 2: canonical pair unions).
  std::size_t probes_flagged = 0;
  std::size_t cuts_applied = 0;  ///< total OTP eliminations across probes
  /// Order 2 only: probe pairs enumerated, and how many of them collapsed
  /// onto an earlier pair's union observation set.
  std::size_t pairs_enumerated = 0;
  std::size_t pairs_deduped = 0;
  /// True when max_findings stopped the sweep before the whole universe was
  /// analyzed — the report is then a valid "not clean" witness but not an
  /// exhaustive finding list.
  bool truncated = false;
  /// True when register feedback was cut into a combinational slice.
  bool sliced = false;
  /// Number of registers the slice extraction cut (0 when not sliced).
  std::size_t cut_registers = 0;
  bool clean() const { return findings.empty(); }
};

/// Runs the linter over every deduplicated probe position of `nl`. With
/// FeedbackMode::kReject the netlist must be a pipeline (no register
/// feedback) — circuits the exact verifier rejects are rejected here too,
/// with the same common::Error. With kSlice, feedback designs are first cut
/// at their state registers (netlist/slice.hpp) and the slice is linted.
LintReport run_lint(const netlist::Netlist& nl, const LintOptions& options = {});

/// Renders the report as an aligned text table (one line per finding).
std::string to_string(const LintReport& report);

/// Returns a copy of `nl` with one extra AND gate whose fanins are the two
/// probe signals. The AND's glitch-extended observation cone is exactly the
/// union of the two probes' cones, so a *single* probe on the combiner in
/// the copy sees what the pair sees in the original — the replay vehicle
/// that lets order-2 findings be certified (and tests replay-validated)
/// through the unchanged single-probe verif::exact engine. Signal ids of
/// `nl` are preserved; the returned id is the combiner.
std::pair<netlist::Netlist, netlist::SignalId> pair_probe_netlist(
    const netlist::Netlist& nl, netlist::SignalId a, netlist::SignalId b);

}  // namespace sca::lint
