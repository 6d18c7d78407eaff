#include "src/core/accplan.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/common/check.hpp"

namespace sca::eval::accplan {

using common::require;

namespace {

// True iff `a` (ascending) is a subset of `b` (ascending). Strictness is
// guaranteed by the caller comparing sizes.
bool is_subset(const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
  std::size_t j = 0;
  for (std::size_t v : a) {
    while (j < b.size() && b[j] < v) ++j;
    if (j == b.size() || b[j] != v) return false;
    ++j;
  }
  return true;
}

// The bit positions of `sub`'s points inside `super`'s key (now half at the
// point's rank in `super`, prev half mirrored `super_points` higher under
// transitions). Requires sub ⊆ super.
std::uint64_t subset_key_mask(const std::vector<std::size_t>& sub,
                              const std::vector<std::size_t>& super,
                              bool transitions) {
  std::uint64_t mask = 0;
  std::size_t j = 0;
  for (std::size_t v : sub) {
    while (super[j] < v) ++j;
    mask |= std::uint64_t{1} << j;
    if (transitions) mask |= std::uint64_t{1} << (super.size() + j);
    ++j;
  }
  return mask;
}

}  // namespace

AccumulationPlan compile_accumulation_plan(const std::vector<PlanSetInput>& sets,
                                           const PlanOptions& options) {
  require(options.narrow_bits <= 8,
          "accplan: narrow_bits above the trie's combo-stack bound");
  AccumulationPlan plan;
  const std::size_t n = sets.size();
  plan.sets.resize(n);

  // Regime selection (hosting may re-label exact sets below).
  for (std::size_t i = 0; i < n; ++i) {
    require(sets[i].points != nullptr, "accplan: set without observed points");
    SetAccPlan& p = plan.sets[i];
    if (options.ttest)
      p.regime = AccRegime::kTtestHw;
    else if (sets[i].compacted)
      p.regime = AccRegime::kCompacted;
    else if (sets[i].observation_bits <= options.narrow_bits)
      p.regime = AccRegime::kNarrow;
    else
      p.regime = AccRegime::kPacked;
  }

  // Subset hosting: for every exact set, search for a minimal-width strict
  // superset among the other exact sets.
  // The inverted index lists, per observed point, the candidate sets
  // containing it in (width asc, id asc) order; scanning the probed set's
  // rarest point's list, the first strict superset found is automatically
  // the minimal-width host (every superset must contain that point). Host
  // chains (i hosted by j hosted by k) are sound because width strictly
  // increases along host links; finalize_order materializes wide-first.
  if (options.fuse && !options.ttest) {
    std::vector<std::uint32_t> exact;
    for (std::size_t i = 0; i < n; ++i)
      if (!sets[i].compacted)
        exact.push_back(static_cast<std::uint32_t>(i));
    std::stable_sort(exact.begin(), exact.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return sets[a].points->size() < sets[b].points->size();
                     });
    std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_point;
    for (std::uint32_t id : exact)
      for (std::size_t pt : *sets[id].points) by_point[pt].push_back(id);
    for (std::uint32_t i : exact) {
      const std::vector<std::size_t>& pts = *sets[i].points;
      const std::vector<std::uint32_t>* rarest = nullptr;
      for (std::size_t pt : pts) {
        const auto& list = by_point.at(pt);
        if (!rarest || list.size() < rarest->size()) rarest = &list;
      }
      std::size_t scanned = 0;
      for (std::uint32_t j : *rarest) {
        if (sets[j].points->size() <= pts.size()) continue;
        if (++scanned > options.host_scan_cap) break;
        if (!is_subset(pts, *sets[j].points)) continue;
        SetAccPlan& p = plan.sets[i];
        p.regime = AccRegime::kHosted;
        p.host = j;
        p.host_mask =
            subset_key_mask(pts, *sets[j].points, options.transitions);
        break;
      }
    }
  }

  // Observation-matrix rows: the ascending union of the live sets' points.
  // Hosted points are always covered by their (transitively live) host, so
  // the union over live sets equals the union over all sets.
  std::vector<std::size_t> row_union;
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.sets[i].regime == AccRegime::kHosted) continue;
    row_union.insert(row_union.end(), sets[i].points->begin(),
                     sets[i].points->end());
  }
  std::sort(row_union.begin(), row_union.end());
  row_union.erase(std::unique(row_union.begin(), row_union.end()),
                  row_union.end());
  plan.rows = std::move(row_union);
  std::unordered_map<std::size_t, std::uint32_t> row_of;
  row_of.reserve(plan.rows.size());
  for (std::size_t r = 0; r < plan.rows.size(); ++r)
    row_of[plan.rows[r]] = static_cast<std::uint32_t>(r);
  const std::uint32_t num_rows = static_cast<std::uint32_t>(plan.rows.size());

  std::vector<std::uint32_t> live;
  for (std::size_t i = 0; i < n; ++i) {
    SetAccPlan& p = plan.sets[i];
    if (p.regime == AccRegime::kHosted) {
      ++plan.hosted_sets;
      continue;
    }
    p.rows.reserve(sets[i].points->size());
    for (std::size_t pt : *sets[i].points) p.rows.push_back(row_of.at(pt));
    live.push_back(static_cast<std::uint32_t>(i));
  }
  plan.live_sets = live.size();

  // Shard partition: greedy balance on a per-sample op-count estimate,
  // heaviest sets first (stable — ties keep input order), each to the
  // lightest shard. Shard membership only partitions work; every merge is
  // a per-set integer add, so the shard count never affects statistics.
  const std::size_t num_shards = std::max<std::size_t>(
      1, std::min<std::size_t>(options.shards, std::max<std::size_t>(
                                                   live.size(), 1)));
  plan.shards.resize(num_shards);
  {
    auto cost = [&](std::uint32_t i) -> double {
      const std::size_t bits = sets[i].observation_bits;
      switch (plan.sets[i].regime) {
        case AccRegime::kNarrow:
          return static_cast<double>(std::size_t{1} << bits);
        case AccRegime::kPacked:
          return 64.0 + static_cast<double>(bits);
        case AccRegime::kCompacted:
          return 48.0;
        case AccRegime::kTtestHw:
          return 16.0 + static_cast<double>(bits);
        case AccRegime::kHosted:
          break;
      }
      return 0.0;
    };
    std::vector<std::uint32_t> order = live;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return cost(a) > cost(b);
                     });
    std::vector<double> load(num_shards, 0.0);
    for (std::uint32_t i : order) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < num_shards; ++s)
        if (load[s] < load[best]) best = s;
      plan.sets[i].shard = static_cast<std::uint32_t>(best);
      load[best] += cost(i);
    }
  }

  // Per-shard straight-line programs.
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardProgram& prog = plan.shards[s];

    // Narrow sets: one shared trie over the expansion row sequences
    // (now rows ascending, then — under transitions — the same rows'
    // prev codes). Lexicographic order maximizes shared prefixes; the DFS
    // linearization emits an expand op only where a set's sequence leaves
    // the common prefix of its predecessor.
    std::vector<std::uint32_t> narrow;
    for (std::uint32_t i : live)
      if (plan.sets[i].regime == AccRegime::kNarrow &&
          plan.sets[i].shard == s)
        narrow.push_back(i);
    std::vector<std::vector<std::uint32_t>> seqs(narrow.size());
    for (std::size_t k = 0; k < narrow.size(); ++k) {
      const auto& rows = plan.sets[narrow[k]].rows;
      seqs[k] = rows;
      if (options.transitions)
        for (std::uint32_t r : rows) seqs[k].push_back(r + num_rows);
    }
    std::vector<std::size_t> seq_order(narrow.size());
    for (std::size_t k = 0; k < narrow.size(); ++k) seq_order[k] = k;
    std::sort(seq_order.begin(), seq_order.end(),
              [&](std::size_t a, std::size_t b) { return seqs[a] < seqs[b]; });
    std::vector<std::uint32_t> path;
    for (std::size_t k : seq_order) {
      const std::vector<std::uint32_t>& seq = seqs[k];
      std::size_t lcp = 0;
      while (lcp < path.size() && lcp < seq.size() && path[lcp] == seq[lcp])
        ++lcp;
      path.resize(lcp);
      while (path.size() < seq.size()) {
        const std::uint8_t depth = static_cast<std::uint8_t>(path.size());
        prog.trie.push_back({seq[path.size()], depth, false});
        plan.trie_expand_ops += std::size_t{1} << depth;
        path.push_back(seq[path.size()]);
      }
      prog.trie.push_back(
          {narrow[k], static_cast<std::uint8_t>(seq.size()), true});
      plan.trie_expand_ops_unshared += (std::size_t{1} << seq.size()) - 1;
    }

    // Packed sets: the sorted union of their expansion codes, cut into
    // consecutive <= 64-row transpose blocks. A set's key-bit sequence
    // (now rows ascending, prev codes after) is itself ascending in code
    // space, so grouping it by block yields one in-order pext gather per
    // touched block.
    std::vector<std::uint32_t> packed_codes;
    for (std::uint32_t i : live) {
      const SetAccPlan& p = plan.sets[i];
      if (p.regime != AccRegime::kPacked || p.shard != s) continue;
      prog.packed.push_back(i);
      packed_codes.insert(packed_codes.end(), p.rows.begin(), p.rows.end());
      if (options.transitions)
        for (std::uint32_t r : p.rows) packed_codes.push_back(r + num_rows);
    }
    std::sort(packed_codes.begin(), packed_codes.end());
    packed_codes.erase(
        std::unique(packed_codes.begin(), packed_codes.end()),
        packed_codes.end());
    std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::uint8_t>>
        code_slot;  // code -> (block, bit position in block)
    for (std::size_t c = 0; c < packed_codes.size(); c += 64) {
      const std::size_t end = std::min(packed_codes.size(), c + 64);
      prog.blocks.emplace_back(packed_codes.begin() + c,
                               packed_codes.begin() + end);
      for (std::size_t k = c; k < end; ++k)
        code_slot[packed_codes[k]] = {
            static_cast<std::uint32_t>(prog.blocks.size() - 1),
            static_cast<std::uint8_t>(k - c)};
    }
    for (std::uint32_t i : prog.packed) {
      SetAccPlan& p = plan.sets[i];
      std::vector<std::uint32_t> key_codes = p.rows;
      if (options.transitions)
        for (std::uint32_t r : p.rows) key_codes.push_back(r + num_rows);
      std::uint8_t key_bit = 0;
      for (std::uint32_t code : key_codes) {
        const auto [block, pos] = code_slot.at(code);
        if (!p.gathers.empty() && p.gathers.back().block == block) {
          p.gathers.back().mask |= std::uint64_t{1} << pos;
        } else {
          p.gathers.push_back({block, std::uint64_t{1} << pos, key_bit});
        }
        ++key_bit;
      }
    }

    for (std::uint32_t i : live) {
      const SetAccPlan& p = plan.sets[i];
      if (p.shard != s) continue;
      if (p.regime == AccRegime::kCompacted) prog.compacted.push_back(i);
      if (p.regime == AccRegime::kTtestHw) prog.ttest.push_back(i);
    }
  }

  // Materialization order for hosted sets: widest first, so a hosted set
  // that itself hosts narrower sets (a chain) is materialized before its
  // dependents read it.
  for (std::size_t i = 0; i < n; ++i)
    if (plan.sets[i].regime == AccRegime::kHosted)
      plan.finalize_order.push_back(static_cast<std::uint32_t>(i));
  std::stable_sort(plan.finalize_order.begin(), plan.finalize_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sets[a].observation_bits >
                            sets[b].observation_bits;
                   });
  return plan;
}

}  // namespace sca::eval::accplan
