// Exact (enumerative) first-order verification under the glitch-extended
// probing model — the SILVER-style ground truth next to the PROLEAD-style
// sampling engine.
//
// For every glitch-extended probe the verifier computes the *exact* joint
// distribution of the probe's observation (the stable signals in its
// combinational fan-in), conditioned on each value of the secret, by
// enumerating all share and fresh-mask assignments over an unrolled copy of
// the pipeline. A probe leaks iff the conditional distributions differ — an
// information-theoretic statement with integer-count certainty, no sampling,
// no thresholds.
//
// Feasibility is bounded by the number of free bits a probe sees; probes
// whose enumeration would be too large are reported as skipped (the sampling
// engine covers them). For the paper's Kronecker delta every probe fits
// comfortably.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/netlist/ir.hpp"

namespace sca::verif {

struct ExactOptions {
  /// Maximum enumeration size: secret bits + free bits per probe.
  std::size_t max_vars = 26;
  /// Maximum observation width (distribution alphabet = 2^bits).
  std::size_t max_observation_bits = 16;
  /// Unroll depth; 0 = sequential_depth(nl) + 1 (+1 with transitions), the
  /// minimum sound value.
  std::size_t cycles = 0;
  /// Worker threads for the per-probe enumerations (0 = SCA_THREADS env,
  /// else hardware concurrency). The verdict is exact either way; results
  /// are reported in the same deterministic order for any thread count.
  unsigned threads = 0;
  /// Transition-extended probes: the observation additionally includes the
  /// previous cycle's values of every observed stable signal (the model of
  /// lint::LintModel::kGlitchTransition), so R4 findings can be certified.
  bool transitions = false;
  /// Enumeration batch width in bit-parallel lanes (64, 256, or 512); 0
  /// resolves like the campaign engine (SCA_LANES env, else the native
  /// SIMD width). The joint counts are exact integers, so every width
  /// yields the identical report — wider just enumerates more assignments
  /// per cone evaluation.
  unsigned lanes = 0;
  /// Inputs instantiated once and shared by all unroll cycles — the slice
  /// inputs standing in for cut state registers (netlist/slice.hpp).
  std::vector<netlist::SignalId> held_inputs;
  /// Honor netlist::Netlist::add_nonzero_bus annotations: every annotated
  /// 8-bit randomness bus is enumerated over GF(256)* instead of GF(2^8)
  /// (the all-zero byte is excluded per bus instance). Bus bits outside the
  /// probe's observation cone are added as phantom enumeration variables so
  /// the constraint applies to the whole byte; they count toward max_vars.
  /// The per-secret histogram totals stay equal (the excluded assignments
  /// are independent of the secrets), so verdicts remain exact — now under
  /// the constrained distribution the hardware actually draws from.
  bool honor_nonzero_buses = true;
};

struct ExactProbeResult {
  netlist::SignalId probe = netlist::kNoSignal;
  std::string name;              ///< representative signal name
  std::size_t observation_bits = 0;
  std::size_t secret_bits = 0;   ///< secret bits the observation can reach
  std::size_t free_bits = 0;     ///< enumerated share/mask bits
  bool skipped = false;          ///< enumeration exceeded the limits
  bool leaks = false;
  /// Largest total-variation distance between two secret-conditioned
  /// observation distributions (0 exactly when secure).
  double max_tv_distance = 0.0;
  /// A pair of full secret values whose distributions differ (valid if
  /// leaks). Secret bits outside the probe's reach are zero.
  std::uint64_t witness_a = 0;
  std::uint64_t witness_b = 0;
};

struct ExactReport {
  std::vector<ExactProbeResult> probes;  ///< one per unique observation set
  bool any_leak = false;
  bool any_skipped = false;
  std::size_t probes_total = 0;
  std::size_t probes_leaking = 0;

  /// Leaking probes, most severe first.
  std::vector<const ExactProbeResult*> leaking() const;
};

/// Runs the exact first-order glitch-extended verification over all probe
/// positions (every signal; probes with identical observation sets are
/// deduplicated). The netlist must be a pipeline (no register feedback) and
/// all its secrets are evaluated jointly.
ExactReport verify_first_order_glitch(const netlist::Netlist& nl,
                                      const ExactOptions& options = {});

/// The exact conditional distribution of one probe, with the metadata a
/// counterexample certificate needs.
struct ProbeDistribution {
  bool feasible = true;
  std::string infeasible_reason;
  /// Names of the secret bits the observation reaches ("s0.b3", or the
  /// netlist's secret_group_name); bit k of a secret value below is
  /// secret_bits[k].
  std::vector<std::string> secret_bits;
  /// Names of the observed (unrolled) stable signals; bit k of an
  /// observation value is observation[k].
  std::vector<std::string> observation;
  std::size_t free_bits = 0;
  /// Secret-major flat histogram: counts[(v << observation.size()) | o] =
  /// exact count of observation o given secret value v. Empty when
  /// infeasible or no secret is reachable.
  std::vector<std::uint32_t> counts;

  /// The 2^observation.size() counts of secret value v.
  std::span<const std::uint32_t> row(std::uint64_t v) const {
    const std::size_t width = std::size_t{1} << observation.size();
    return std::span<const std::uint32_t>(counts).subspan(v * width, width);
  }
  /// Number of secret values (rows); 0 when counts is empty.
  std::size_t rows() const { return counts.size() >> observation.size(); }
};

namespace detail {
struct Analysis;
}

/// Amortizes the unrolling and support analysis over many probe queries on
/// one netlist — the certificate generator behind lint findings. All
/// methods are const and thread-safe.
class ProbeDistributionEngine {
 public:
  ProbeDistributionEngine(const netlist::Netlist& nl,
                          const ExactOptions& options = {});
  ~ProbeDistributionEngine();

  ProbeDistribution distribution(netlist::SignalId probe) const;

  /// A full input assignment (unrolled input name -> value) reproducing
  /// observation value `obs` under secret value `secret` — the mask
  /// assignment half of a counterexample certificate. Empty when no
  /// assignment exists (count zero) or the probe is infeasible.
  std::vector<std::pair<std::string, bool>> preimage(netlist::SignalId probe,
                                                     std::uint64_t secret,
                                                     std::uint64_t obs) const;

  /// The enumeration problem behind distribution(probe) and the unrolled
  /// netlist it refers to (exact_detail.hpp) — for equivalence tests.
  detail::Analysis analysis(netlist::SignalId probe) const;
  const netlist::Netlist& unrolled_netlist() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Renders the report as an aligned text table.
std::string to_string(const ExactReport& report);

}  // namespace sca::verif
