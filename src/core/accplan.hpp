// Ahead-of-time compilation of a campaign batch's statistics accumulation.
//
// The campaign engine treats the batch's probe sets the way sim/tape treats
// gates: a planning pass runs once per batch, before any simulation, and
// emits a straight-line accumulation program that the per-chunk executor
// replays over every buffered sample. The plan makes three structural
// optimizations that a per-set loop cannot:
//
//  * **Subset hosting.** An exact set whose observed points are a strict
//    subset of another exact set in the same batch needs no per-sample
//    accumulation at all: its count table is an exact integer marginal of
//    the host's (sum host keys that project onto each hosted key). Tables
//    materialize their whole key space, so the marginal is bit-identical
//    to accumulating the hosted set directly. A first-order campaign over a
//    real design is dominated by such subsets (every probe inside a cone
//    observes a subset of the cone's root), so hosting removes most sets
//    from the hot loop entirely.
//  * **Shared observation matrix + conjunction CSE.** The remaining live
//    sets read their observed bit planes out of one shared row-indexed
//    matrix instead of gathering per set. Narrow sets (conjunction-popcount
//    regime) compile into one trie-linearized program whose expansion ops
//    are shared across every set with a common observation prefix; packed
//    sets (transpose regime) share 64-row transpose blocks, each set
//    extracting its key bits from the transposed block with a pext-style
//    gather recipe.
//  * **Plan-time regime selection.** Vertical-counter HW (t-test),
//    compacted-HW histogram, narrow conjunction, or packed transpose is
//    decided per set at plan time; the executor runs homogeneous op lists
//    with no per-sample dispatch on set shape.
//
// The plan also carries the probe-set shard partition for the campaign's
// two-dimensional (chunk x set-shard) scheduling: large probe-set counts
// scale past the chunk grid by splitting the live sets into shards that
// execute as independent work cells. Everything in the plan is a pure
// function of the batch's set descriptors and the options, so every plan
// layout (and every resumed run) counts bit-identically by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sca::eval::accplan {

/// Accumulation regime chosen at plan time.
enum class AccRegime : std::uint8_t {
  kHosted,     ///< finalized as an integer marginal of a hosting set
  kNarrow,     ///< conjunction-popcount histogram (trie program)
  kPacked,     ///< shared-block transpose + pext key gather
  kCompacted,  ///< Hamming-weight pair histogram in plane space
  kTtestHw,    ///< vertical-counter Hamming weights (Welch t-test)
};

/// Per-set descriptor the planner consumes (a view into PreparedSet).
struct PlanSetInput {
  /// Observed stable-point indices, ascending (the campaign's dense order).
  const std::vector<std::size_t>* points = nullptr;
  std::size_t observation_bits = 0;  ///< points x (1 or 2 under transitions)
  bool compacted = false;
};

/// Exact sets at or below this width use the narrow conjunction regime.
/// 8 balances the 2^bits expansion cost against the transpose path's
/// per-lane table updates (measured per accumulation path on the E2
/// campaign; the expansion is one vector op per combo, so it wins as long as
/// the per-key popcount vectorizes), and it bounds the trie's combo stack.
inline constexpr std::size_t kNarrowBits = 8;

struct PlanOptions {
  bool transitions = false;  ///< keys carry a previous-cycle half
  bool ttest = false;        ///< every set runs the HW regime (no hosting)
  /// Requested probe-set shards for 2-D scheduling (clamped to the live-set
  /// count; 1 = classic chunk-only scheduling).
  unsigned shards = 1;
};

/// One op of a shard's straight-line narrow-conjunction program. The
/// executor keeps a stack of combo levels (level d holds the 2^d lane-mask
/// conjunctions of the first d rows on the current trie path); kExpand
/// reads level `depth` and writes level `depth + 1` from matrix row `arg`,
/// kEmit popcounts level `depth` into batch-local set `arg`'s count table.
/// Sibling subtrees reuse the parent's level in place — the DFS
/// linearization guarantees a level is fully consumed before a sibling
/// overwrites it.
struct TrieOp {
  std::uint32_t arg = 0;
  std::uint8_t depth = 0;
  bool emit = false;
};

/// One pext-style gather step of a packed set's key recipe: extract the
/// bits selected by `mask` from the set's shard-local transposed block
/// `block` and OR them into the key at bit offset `shift`. Masks select
/// block rows in ascending order, which equals ascending key-bit order, so
/// a recipe is one pext + shift per touched block.
struct PackedGather {
  std::uint32_t block = 0;
  std::uint64_t mask = 0;
  std::uint8_t shift = 0;
};

/// Compiled accumulation of one probe set (batch-local).
struct SetAccPlan {
  static constexpr std::uint32_t kNoHost = ~std::uint32_t{0};
  AccRegime regime = AccRegime::kNarrow;
  std::uint32_t shard = 0;  ///< owning shard (live sets only)
  /// Hosting: batch-local index of the host set and the bit positions of
  /// this set's key inside the host's key (now half and, under transitions,
  /// the mirrored prev half). pext(host_key, host_mask) == hosted key.
  std::uint32_t host = kNoHost;
  std::uint64_t host_mask = 0;
  /// Observation-matrix rows of the observed points, ascending (the now
  /// half; under transitions the prev value of row r is row r + num_rows).
  std::vector<std::uint32_t> rows;
  std::vector<PackedGather> gathers;  ///< kPacked key recipe
};

/// The per-shard straight-line programs the executor replays per sample
/// buffer. Lists hold batch-local set indices.
struct ShardProgram {
  std::vector<TrieOp> trie;  ///< narrow sets, expansion CSE'd
  /// Transpose blocks: each block is <= 64 matrix rows (ascending), gathered
  /// and transposed once per (sample, limb) and shared by every packed set
  /// whose key touches it.
  std::vector<std::vector<std::uint32_t>> blocks;
  std::vector<std::uint32_t> packed;
  std::vector<std::uint32_t> compacted;
  std::vector<std::uint32_t> ttest;
};

/// The compiled batch plan.
struct AccumulationPlan {
  /// Stable-point index of each observation-matrix row (the union of the
  /// live sets' observed points, ascending). Samples snapshot exactly these
  /// signals, row-major.
  std::vector<std::size_t> rows;
  std::vector<SetAccPlan> sets;        ///< batch-local, input order
  std::vector<ShardProgram> shards;    ///< size >= 1
  /// Hosted sets in materialization order (hosts before their dependents —
  /// descending observation width works because hosts are strictly wider).
  std::vector<std::uint32_t> finalize_order;
  std::size_t hosted_sets = 0;
  std::size_t live_sets = 0;
  /// CSE diagnostics: expansion ops emitted vs. the per-set total a
  /// non-shared trie would need.
  std::size_t trie_expand_ops = 0;
  std::size_t trie_expand_ops_unshared = 0;
};

/// Compiles the batch plan. Deterministic: depends only on `sets` (order
/// included) and `options`, never on thread count or lane width.
AccumulationPlan compile_accumulation_plan(const std::vector<PlanSetInput>& sets,
                                           const PlanOptions& options);

}  // namespace sca::eval::accplan
