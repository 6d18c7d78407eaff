// Distribution-type lattice analysis — the engine of the static leakage
// linter.
//
// The analysis works on the *unrolled* (purely combinational) netlist
// produced by verif::unroll, where every observed signal is a Boolean
// expression over per-cycle instances of the primary inputs. Each node is
// abstracted by a pair of variable sets (L, N) meaning
//
//     value(node) = <L, vars> XOR g(vars restricted to N)
//
// L is the *exact* GF(2)-linear part (parity is tracked, so f ^ f cancels)
// and N over-approximates the support of the nonlinear remainder g. The
// lattice labels of the issue map onto this abstraction: constant =
// (empty, empty); fresh-random = ({f}, empty); share-of-secret = ({s},
// empty); combined = anything with |L| + |N| > 1. A fresh variable f with
// f in L(v) \ N(v) acts as a one-time pad (OTP) for node v.
//
// Fresh variables carry *support annotations*: a bit of an annotated
// nonzero randomness bus (netlist::Netlist::add_nonzero_bus, the GF(256)*
// masks of the multiplicative conversions) is constrained-uniform — the
// byte is uniform on the 255 nonzero values, so each bit is biased and the
// eight bits are correlated. Such variables are *non-padable*: they are
// refused as XOR one-time pads (both for node cuts and for the row
// elimination below), because XOR with a nonzero-constrained byte does NOT
// blind. What a nonzero mask does provide is *multiplicative* blinding,
// which the analysis recovers through byte-level gadget rules:
//
//   * Product-family rule: for an annotated nonzero sharing
//     (add_nonzero_sharing: share buses recombining to a provably nonzero
//     byte, every proper subset jointly uniform given the secrets) whose
//     shares feed structurally-verified GF(2^8) multipliers against one
//     common factor bus that traces to a nonzero mask, the product bytes
//     observed by the tuple are replaced: a proper subset of the products
//     is jointly uniform (multiplication by a fixed nonzero factor is a
//     bijection), and the full set equals fresh-uniform padding plus one
//     fresh *nonzero* byte (the blinded recombination X'·B ∈ GF(256)*).
//   * Multiplier rule: Z = A·B with A a byte of fresh uniform (or fresh
//     nonzero) bits observed only through Z, and B tracing to a nonzero
//     mask: Z is a fresh uniform (resp. nonzero) byte.
//   * Inverse/square rule: both maps are bijections of GF(2^8) that
//     preserve GF(256)*, so a fresh uniform/nonzero operand byte observed
//     only through the output is replaced by a fresh byte of the same
//     support.
//
// Every gadget annotation is re-verified in the TupleAnalyzer constructor
// by exhaustive bit-parallel simulation against golden GF(2^8) bit-planes
// — the rules never trust the builder's wiring, only the *distribution*
// contracts of the randomness annotations (which the harness enforces).
//
// On top of the abstraction the analyzer applies the two rules of
// maskVerif-style probing verification to an observation tuple (the
// glitch/transition-extended contents of one probe):
//
//   * OTP elimination ("cut"): if every influence of a fresh *padable*
//     variable f on the tuple flows through a single node v with f in
//     L(v) \ N(v), then v is uniformly distributed and independent of the
//     remaining tuple; v is replaced by a *virtual* fresh variable and the
//     analysis iterates. Virtual variables can seed further cuts. The
//     node cuts and the byte-level gadget rules alternate to a joint
//     fixpoint. "Every influence flows through v" is dominance: on the
//     cone graph rooted at a virtual node over the tuple elements (forced
//     nodes and inputs are terminals), v must dominate every reachable
//     source of f, so the cut search walks the dominator tree upward from
//     the sources' common dominator and takes the most downstream node
//     with f in L \ N.
//   * Non-completeness: at the fixpoint, the tuple is independent of every
//     secret if for each sharing instance (secret, bit, cycle) at least
//     one share is absent from the residual dependency union — fresh
//     re-sharing each cycle makes incomplete share sets jointly uniform.
//     (This step needs only independence-from-secrets of the fresh
//     inputs, not uniformity, so it is sound for constrained randomness
//     as-is; a cheap raw-support version of it short-circuits tuples that
//     never see a complete share set.)
//
// A tuple that still reaches every share of some sharing instance is
// *flagged*: the linter cannot prove it secure. Flagging is sound for
// security proofs (a clean verdict is a proof under the model); precision
// (no false alarms) is validated against the exact enumerative verifier
// over restricted plan spaces in tests/lint_test.cpp.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/netlist/ir.hpp"
#include "src/verif/unroll.hpp"

namespace sca::lint {

/// One observed element of a probe tuple: a stable signal of the original
/// netlist, `cycle_back` cycles before the probe cycle (0 = the probe
/// cycle itself, 1 = the transition-extended previous cycle).
struct TupleElement {
  netlist::SignalId stable = netlist::kNoSignal;
  std::size_t cycle_back = 0;
};

/// A completed sharing instance: the residual tuple reaches every share of
/// bit `bit` of secret group `secret` as shared at unrolled cycle `cycle`.
struct CompletedSharing {
  std::uint32_t secret = 0;
  std::uint32_t bit = 0;
  std::size_t cycle = 0;
  std::vector<std::size_t> elements;  ///< contributing tuple element indices
};

/// A fresh input reached by residual elements that contribute to a
/// completed sharing. Plain fresh bits are randomness-*reuse* witnesses
/// and appear only when two or more elements share them; nonzero-
/// constrained bits are hazard witnesses on their own (the bias, not
/// reuse, defeats the XOR pad) and appear from one touching element up.
struct SharedFresh {
  netlist::SignalId input = netlist::kNoSignal;  ///< original input signal
  std::size_t cycle = 0;                         ///< unrolled draw cycle
  /// True when the input is a bit of an annotated nonzero randomness bus:
  /// the mask blinds multiplicatively but not as an XOR pad (the R5
  /// classification of the linter).
  bool nonzero = false;
  std::vector<std::size_t> elements;             ///< tuple element indices
};

struct TupleVerdict {
  bool secure = true;
  /// Sharing instances the residual tuple completes (empty when secure).
  std::vector<CompletedSharing> completed;
  /// Elements that survived OTP elimination and contribute shares to some
  /// completed sharing, ascending.
  std::vector<std::size_t> residual_elements;
  /// Fresh bits shared between residual contributing elements.
  std::vector<SharedFresh> shared_fresh;
  /// True when some completed sharing is drawn at the probe cycle itself,
  /// i.e. share inputs meet the probe through purely combinational paths.
  bool raw_share_path = false;
  /// OTP eliminations performed (XOR node cuts, row cuts, and byte-level
  /// gadget-rule replacements).
  std::size_t cuts_applied = 0;
};

/// Per-tuple lattice analyzer. Construct once per netlist (the unrolling,
/// supports, and gadget verification are reused across all tuples), then
/// call analyze() per observation tuple. analyze() may run concurrently on
/// several threads; its cost is proportional to the tuple's cone, on
/// per-thread scratch that is reused from call to call.
///
/// The constructor re-verifies every netlist::GfGadget annotation by
/// exhaustive simulation (on `threads` workers, 0 = common::resolve_threads)
/// and throws common::Error when a declared byte structure does not compute
/// the golden GF(2^8) function — a builder bug, never a lintable condition.
/// Setting the SCA_LINT_DEBUG environment variable before construction
/// traces every cut and rule firing to stderr.
class TupleAnalyzer {
 public:
  /// `unrolled` must come from verif::unroll(original, cycles) with
  /// cycles > sequential_depth(original) + the largest cycle_back used.
  TupleAnalyzer(const netlist::Netlist& original,
                const verif::Unrolled& unrolled, unsigned threads = 0);

  TupleVerdict analyze(const std::vector<TupleElement>& elements) const;

  /// The unrolled cycle observed by cycle_back = 0 elements.
  std::size_t probe_cycle() const { return last_cycle_; }

 private:
  class Pass;      // one analyze() call (lattice.cpp)
  struct Scratch;  // per-thread buffers reused across analyze() calls

  /// A structurally-verified multiplier annotation. `factor_nonzero` is
  /// true when the b operand traces (through registers/buffers, bit
  /// aligned) to an annotated nonzero randomness bus.
  struct MulSite {
    const netlist::GfGadget* gadget = nullptr;
    bool factor_nonzero = false;
  };
  /// A structurally-verified inverse or square annotation.
  struct UnarySite {
    const netlist::GfGadget* gadget = nullptr;
  };
  /// A nonzero sharing whose every share bus feeds a verified multiplier
  /// against one common nonzero factor bus — the product-family rule's
  /// subject.
  struct Family {
    std::vector<std::size_t> mul_sites;  ///< per-share index into mul_sites_
  };

  /// A byte-level rule instance: a family, multiplier or inverse/square
  /// site at one unrolled cycle. Instances are tried in (cycle, kind,
  /// index) order.
  struct RuleInst {
    enum class Kind : std::uint8_t { kFamily, kMul, kUnary };
    std::uint32_t cycle = 0;
    Kind kind = Kind::kFamily;
    std::uint32_t index = 0;
    auto operator<=>(const RuleInst&) const = default;
  };

  const netlist::Netlist* original_;
  const verif::Unrolled* unrolled_;
  std::size_t last_cycle_ = 0;
  bool debug_ = false;
  /// Unrolled input signal id -> index into unrolled_->nl.inputs().
  std::vector<std::size_t> input_index_;  // SIZE_MAX where not an input
  /// Per unrolled input: a bit of an annotated nonzero bus.
  std::vector<char> input_nonzero_;
  /// Netlist::share_count of every secret group.
  std::vector<std::uint32_t> share_counts_;
  std::vector<MulSite> mul_sites_;
  std::vector<UnarySite> unary_sites_;
  std::vector<Family> families_;
  /// Rule instances with an output bit at unrolled signal s:
  /// rule_insts_[rule_offsets_[s] .. rule_offsets_[s + 1]).
  std::vector<std::uint32_t> rule_offsets_;
  std::vector<RuleInst> rule_insts_;
  /// Unrolled instances of the annotated nonzero buses (8 input signals,
  /// bit 0 first), indexed by their bit-0 signal like rule_insts_.
  std::vector<std::uint32_t> nonzero_offsets_;
  std::vector<std::array<netlist::SignalId, 8>> nonzero_instances_;
};

}  // namespace sca::lint
