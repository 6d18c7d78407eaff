#include "src/core/campaign.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/accplan.hpp"
#include "src/core/campaign_parts.hpp"
#include "src/core/checkpoint.hpp"
#include "src/sim/simulator.hpp"

namespace sca::eval {

using common::require;
using detail::PreparedSet;
using detail::Sample;
using netlist::Netlist;
using netlist::SignalId;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Accumulation sub-phase CPU seconds, summed over workers (see
// CampaignResult). Not checkpointed, so a resumed campaign restarts them
// at zero.
struct SubPhaseSeconds {
  double extract = 0.0;
  double transpose = 0.0;
  double histogram = 0.0;
};

// Per-worker scratch: a private simulator over the shared schedule, the
// sample buffer, packed-regime staging tiles, per-phase timers — and the
// worker-lifetime count tables of the batch's live sets: 16-bit counters
// with an exact carry list (stats::CarryCountTable), a quarter of the
// master's bytes, so the wide sets' histograms stay in cache. Every table
// materializes its whole key space, so merging is a commutative integer
// add: a worker accumulates across every cell it runs and folds into the
// master exactly once (the thread pool's finalize hook), in any worker
// order, without costing determinism.
struct WorkerCtx {
  explicit WorkerCtx(const sim::Schedule& schedule) : simulator(schedule) {}
  sim::Simulator simulator;
  std::vector<Sample> samples;
  std::vector<stats::CarryCountTable> tables;
  std::vector<std::uint64_t> block_scratch;
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  SubPhaseSeconds sub;
};

// --- plan executor ------------------------------------------------------------
//
// Executes one shard of a batch's compiled accumulation plan over a buffer
// of samples, one regime-homogeneous phase per op list (t-test, narrow
// trie, compacted, packed). The executor never leaves lane-word space until
// the final histogram update, and inactive tail limbs are never read. Its
// integer counts equal a per-lane scalar key computation's
// (tests/reference_campaign.hpp).

// Lane word of expansion code `code`: matrix row `code` of the sample
// cycle, or, for codes past the plan's rows, that row of the cycle before.
template <unsigned kLimbs>
common::SimdWord<kLimbs> code_word(const Sample& sample, std::size_t num_rows,
                                   std::size_t code) {
  using Word = common::SimdWord<kLimbs>;
  return code < num_rows
             ? Word::load(sample.now.data() + code * kLimbs)
             : Word::load(sample.prev.data() + (code - num_rows) * kLimbs);
}

template <unsigned kLimbs>
void accumulate_ttest(const accplan::AccumulationPlan& plan,
                      const accplan::ShardProgram& prog,
                      const std::vector<Sample>& buf, bool transitions,
                      WorkerCtx& ctx) {
  const std::size_t num_rows = plan.rows.size();
  common::WideVerticalCounter<kLimbs> vc;
  std::array<std::uint16_t, 64> hw{};
  for (std::uint32_t l : prog.ttest) {
    const accplan::SetAccPlan& sp = plan.sets[l];
    for (const Sample& sample : buf) {
      // TVLA: per-lane Hamming weight of the (extended) observation, all
      // lanes per vertical-counter pass. Weight w of this sample's group
      // counts at entry 2 * w + group.
      stats::CarryCountTable& table = ctx.tables[l];
      const auto group = static_cast<std::size_t>(sample.group);
      vc.clear();
      for (std::uint32_t r : sp.rows)
        vc.add(code_word<kLimbs>(sample, num_rows, r));
      if (transitions)
        for (std::uint32_t r : sp.rows)
          vc.add(code_word<kLimbs>(sample, num_rows, r + num_rows));
      for (unsigned b = 0; b < sample.active; ++b) {
        vc.lane_counts(b, hw.data());
        for (unsigned lane = 0; lane < 64; ++lane)
          table.add(2 * std::size_t{hw[lane]} + group, 1);
      }
    }
  }
}

// Narrow exact sets (the bulk of a first-order campaign): the whole 2^bits
// histogram of a sample comes from conjunction popcounts — level[key] has
// lane L set iff lane L observed `key` — with no transpose and no per-lane
// work at all. The trie program shares expansion ops across every set with
// a common observation prefix; sibling subtrees reuse a level in place
// after it is consumed. Level d of the combo stack lives at offset 2^d - 1
// (depth is capped at kNarrowBits, so the stack is 2^(kNarrowBits+1)-1
// words).
template <unsigned kLimbs>
void accumulate_narrow(const accplan::AccumulationPlan& plan,
                       const accplan::ShardProgram& prog,
                       const std::vector<Sample>& buf, WorkerCtx& ctx) {
  using Word = common::SimdWord<kLimbs>;
  const std::size_t num_rows = plan.rows.size();
  std::array<Word, (std::size_t{2} << accplan::kNarrowBits) - 1> levels;
  for (const Sample& sample : buf) {
    levels[0] = Word::ones();
    const bool full = sample.active == kLimbs;
    for (const accplan::TrieOp& op : prog.trie) {
      const std::size_t cnt = std::size_t{1} << op.depth;
      if (!op.emit) {
        const Word w = code_word<kLimbs>(sample, num_rows, op.arg);
        Word* const src = levels.data() + (cnt - 1);
        Word* const dst = levels.data() + (2 * cnt - 1);
        for (std::size_t c = 0; c < cnt; ++c) {
          const Word m = src[c];
          dst[c] = m & ~w;
          dst[cnt + c] = m & w;
        }
        continue;
      }
      stats::CarryCountTable& table = ctx.tables[op.arg];
      const auto group = static_cast<std::size_t>(sample.group);
      const Word* const lvl = levels.data() + (cnt - 1);
      if (full) {
        for (std::size_t key = 0; key < cnt; ++key)
          table.add(2 * key + group, lvl[key].popcount());
      } else {
        for (std::size_t key = 0; key < cnt; ++key)
          table.add(2 * key + group, lvl[key].popcount(sample.active));
      }
    }
  }
}

// Hamming-weight pairs histogrammed in plane space: the vertical counter's
// bit-planes are the binary digits of the per-lane counts, so
// conjunction-expanding pn (+ pp) planes yields one lane-mask per (hn, hp)
// value and a popcount replaces 64 table updates.
template <unsigned kLimbs>
void accumulate_compacted(const accplan::AccumulationPlan& plan,
                          const accplan::ShardProgram& prog,
                          const std::vector<Sample>& buf, bool transitions,
                          WorkerCtx& ctx) {
  using Word = common::SimdWord<kLimbs>;
  const std::size_t num_rows = plan.rows.size();
  common::WideVerticalCounter<kLimbs> vc_now, vc_prev;
  std::vector<Word> hw_combos;
  const auto expand = [&](const common::WideVerticalCounter<kLimbs>& vc,
                          unsigned planes, std::size_t& n) {
    for (unsigned j = 0; j < planes; ++j) {
      const Word w = vc.plane(j);
      for (std::size_t c = 0; c < n; ++c) {
        const Word m = hw_combos[c];
        hw_combos[c + n] = m & w;
        hw_combos[c] = m & ~w;
      }
      n <<= 1;
    }
  };
  for (std::uint32_t l : prog.compacted) {
    const accplan::SetAccPlan& sp = plan.sets[l];
    stats::CarryCountTable& table = ctx.tables[l];
    const unsigned hw_shift = detail::hp_bits(sp.rows.size(), transitions);
    for (const Sample& sample : buf) {
      vc_now.clear();
      for (std::uint32_t r : sp.rows)
        vc_now.add(code_word<kLimbs>(sample, num_rows, r));
      const unsigned pn = vc_now.planes_in_use();
      unsigned pp = 0;
      if (transitions) {
        vc_prev.clear();
        for (std::uint32_t r : sp.rows)
          vc_prev.add(code_word<kLimbs>(sample, num_rows, r + num_rows));
        pp = vc_prev.planes_in_use();
      }
      const std::size_t n_hw = std::size_t{1} << (pn + pp);
      if (hw_combos.size() < n_hw) hw_combos.resize(n_hw);
      hw_combos[0] = Word::ones();
      std::size_t n = 1;
      expand(vc_now, pn, n);
      expand(vc_prev, pp, n);
      const std::uint64_t hn_mask = (std::uint64_t{1} << pn) - 1;
      const bool full = sample.active == kLimbs;
      for (std::size_t c = 0; c < n; ++c) {
        const unsigned cnt = full ? hw_combos[c].popcount()
                                  : hw_combos[c].popcount(sample.active);
        if (!cnt) continue;
        const std::uint64_t key = ((c & hn_mask) << hw_shift) | (c >> pn);
        table.add(2 * key + static_cast<std::size_t>(sample.group), cnt);
      }
    }
  }
}

// Wider exact sets: the shard's transpose blocks are gathered and
// transposed once per (sample, limb) and shared by every packed set
// touching them; each set then pext-gathers its key bits from the
// transposed columns (block word `lane` holds bit i = block-row i's lane-L
// value, and masks select rows in ascending key-bit order). Samples are
// staged in tiles so the block scratch stays in cache, and each sub-pass
// (gather / transpose / key extraction) runs as a separately-timed bulk
// loop over the tile.
template <unsigned kLimbs>
void accumulate_packed(const accplan::AccumulationPlan& plan,
                       const accplan::ShardProgram& prog,
                       const std::vector<Sample>& buf, WorkerCtx& ctx) {
  const std::size_t num_rows = plan.rows.size();
  const std::size_t nblocks = prog.blocks.size();
  const std::size_t block_words = nblocks * 64;
  const std::size_t words_per_sample = block_words * kLimbs;
  const std::size_t tile_samples = std::max<std::size_t>(
      1, (std::size_t{256} << 10) / (words_per_sample * 8));
  if (ctx.block_scratch.size() < tile_samples * words_per_sample)
    ctx.block_scratch.resize(tile_samples * words_per_sample);
  std::uint64_t* const scratch = ctx.block_scratch.data();
  for (std::size_t s0 = 0; s0 < buf.size(); s0 += tile_samples) {
    const std::size_t sn = std::min(tile_samples, buf.size() - s0);
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < sn; ++s) {
      const Sample& sample = buf[s0 + s];
      for (unsigned b = 0; b < sample.active; ++b) {
        std::uint64_t* dst = scratch + (s * kLimbs + b) * block_words;
        for (const std::vector<std::uint32_t>& rows : prog.blocks) {
          for (std::size_t i = 0; i < rows.size(); ++i)
            dst[i] = rows[i] < num_rows
                         ? sample.now[rows[i] * kLimbs + b]
                         : sample.prev[(rows[i] - num_rows) * kLimbs + b];
          std::fill(dst + rows.size(), dst + 64, std::uint64_t{0});
          dst += 64;
        }
      }
    }
    const auto t1 = Clock::now();
    for (std::size_t s = 0; s < sn; ++s) {
      for (unsigned b = 0; b < buf[s0 + s].active; ++b) {
        std::uint64_t* dst = scratch + (s * kLimbs + b) * block_words;
        for (std::size_t blk = 0; blk < nblocks; ++blk, dst += 64)
          common::transpose64(dst);
      }
    }
    const auto t2 = Clock::now();
    for (std::uint32_t l : prog.packed) {
      const accplan::SetAccPlan& sp = plan.sets[l];
      stats::CarryCountTable& table = ctx.tables[l];
      for (std::size_t s = 0; s < sn; ++s) {
        const Sample& sample = buf[s0 + s];
        const auto group = static_cast<std::size_t>(sample.group);
        for (unsigned b = 0; b < sample.active; ++b) {
          const std::uint64_t* const base =
              scratch + (s * kLimbs + b) * block_words;
          for (unsigned lane = 0; lane < 64; ++lane) {
            std::uint64_t key = 0;
            for (const accplan::PackedGather& g : sp.gathers)
              key |= common::extract_bits64(
                         base[std::size_t{g.block} * 64 + lane], g.mask)
                     << g.shift;
            table.add(2 * key + group, 1);
          }
        }
      }
    }
    const auto t3 = Clock::now();
    ctx.sub.extract += seconds_between(t0, t1);
    ctx.sub.transpose += seconds_between(t1, t2);
    ctx.sub.histogram += seconds_between(t2, t3);
  }
}

template <unsigned kLimbs>
void execute_shard(const accplan::AccumulationPlan& plan, std::size_t shard,
                   const std::vector<Sample>& buf, bool transitions,
                   WorkerCtx& ctx) {
  const accplan::ShardProgram& prog = plan.shards[shard];
  if (!prog.ttest.empty())
    accumulate_ttest<kLimbs>(plan, prog, buf, transitions, ctx);
  if (!prog.trie.empty()) {
    const auto t0 = Clock::now();
    accumulate_narrow<kLimbs>(plan, prog, buf, ctx);
    ctx.sub.histogram += seconds_between(t0, Clock::now());
  }
  if (!prog.compacted.empty()) {
    const auto t0 = Clock::now();
    accumulate_compacted<kLimbs>(plan, prog, buf, transitions, ctx);
    ctx.sub.histogram += seconds_between(t0, Clock::now());
  }
  if (!prog.packed.empty()) accumulate_packed<kLimbs>(plan, prog, buf, ctx);
}

void execute_plan_shard(const accplan::AccumulationPlan& plan,
                        std::size_t shard, const std::vector<Sample>& buf,
                        bool transitions, WorkerCtx& ctx) {
  switch (ctx.simulator.limbs()) {
    case 1:
      execute_shard<1>(plan, shard, buf, transitions, ctx);
      break;
    case 4:
      execute_shard<4>(plan, shard, buf, transitions, ctx);
      break;
    case 8:
      execute_shard<8>(plan, shard, buf, transitions, ctx);
      break;
    default:
      SCA_ASSERT(false, "campaign: unsupported limb count");
  }
}

// --- chunk, stage and batch grids -------------------------------------------

// Stage-count resolution, mirroring resolve_threads: an explicit request
// wins, else the SCA_STAGES environment variable, else 1 (the classic
// single-pass campaign).
unsigned resolve_stages(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SCA_STAGES")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 1;
}

// The run budget sharded into fixed chunks, and the chunks into stages.
// Chunk c simulates the 64-lane runs [c * runs_per_chunk, ...), whose
// randomness the counter PRG addresses by absolute run. The chunk grid
// depends only on the workload — never on the thread count or the lane
// width — so every thread count and every lane width produces
// bit-identical statistics (wide execution blocks align to the chunk
// start; a chunk tail shorter than the lane width just runs with inactive
// limbs). A stage is a contiguous chunk range; because the master
// accumulators are integer counts, running the ranges back to back (in one
// process or across a checkpoint/resume) is bit-identical to one
// uninterrupted pass over [0, num_chunks).
struct ChunkGrid {
  std::size_t observations_per_run = 0;
  std::size_t runs_per_group = 0;
  std::size_t runs_per_chunk = 0;
  std::size_t num_chunks = 0;
  std::vector<std::size_t> stage_bounds;  // chunk index of each boundary

  std::size_t stages() const { return stage_bounds.size() - 1; }
  // 64-lane runs in the chunks before `chunk`.
  std::size_t runs_before(std::size_t chunk) const {
    return std::min(runs_per_group, chunk * runs_per_chunk);
  }
};

ChunkGrid make_chunk_grid(const CampaignOptions& options,
                          std::size_t samples_per_run) {
  constexpr std::size_t kMaxLimbs = 8;
  ChunkGrid grid;
  grid.observations_per_run = 64 * samples_per_run;
  grid.runs_per_group = common::ceil_div(
      std::max<std::size_t>(options.simulations, 64),
      grid.observations_per_run);
  // ~256 chunks load-balance well beyond any sane thread count. Campaigns
  // of at least 256 runs round the chunk size up to the widest limb count,
  // so the steady-state execution block is full at every lane width; tiny
  // campaigns keep the fine seed grid instead — stage/early-stop
  // granularity matters more than SIMD width there.
  const std::size_t fine =
      common::ceil_div(grid.runs_per_group, std::size_t{256});
  grid.runs_per_chunk =
      grid.runs_per_group < 256
          ? fine
          : common::ceil_div(fine, kMaxLimbs) * kMaxLimbs;
  grid.num_chunks = common::ceil_div(grid.runs_per_group, grid.runs_per_chunk);

  std::vector<double> fractions = options.stage_schedule;
  if (fractions.empty()) {
    const unsigned s = resolve_stages(options.stages);
    for (unsigned i = 1; i <= s; ++i)
      fractions.push_back(static_cast<double>(i) / s);
  }
  require(std::abs(fractions.back() - 1.0) < 1e-9,
          "campaign: stage schedule must end at 1.0");
  grid.stage_bounds.push_back(0);
  double prev = 0.0;
  for (double f : fractions) {
    require(f > prev && f <= 1.0 + 1e-9,
            "campaign: stage fractions must ascend within (0, 1]");
    prev = f;
    const std::size_t b = std::min<std::size_t>(
        grid.num_chunks, static_cast<std::size_t>(std::llround(
                             f * static_cast<double>(grid.num_chunks))));
    if (b > grid.stage_bounds.back()) grid.stage_bounds.push_back(b);
  }
  if (grid.stage_bounds.back() != grid.num_chunks)
    grid.stage_bounds.push_back(grid.num_chunks);
  return grid;
}

using BatchRange = std::pair<std::size_t, std::size_t>;  // [begin, end) sets

// Splits the probe sets into batches whose count tables fit `batch_budget`
// bytes; the simulation re-runs per batch (it is cheap next to table
// accumulation, and the PRG makes passes identical). The estimate charges
// 64 bytes per expected bin (compacted sets: 1024 bins), and an exact set
// at least its u64 master and one worker's 16-bit table over the whole key
// space. The grid is a function of the workload and the budget only, never
// of the thread count: the batch grid is part of the fingerprint, and early
// stopping is decided per batch. Workers beyond the first get tables only
// where the budget leaves room (batch_workers).
constexpr std::size_t kBytesPerBin = 64;

std::size_t master_bytes(unsigned key_bits) {
  return (std::size_t{2} << key_bits) * sizeof(std::uint64_t);
}

std::vector<BatchRange> plan_batches(const std::vector<PreparedSet>& sets,
                                     std::size_t samples_total,
                                     std::size_t batch_budget) {
  std::vector<BatchRange> batches;
  std::size_t begin = 0;
  while (begin < sets.size()) {
    std::size_t end = begin;
    std::size_t budget_used = 0;
    for (; end < sets.size(); ++end) {
      const PreparedSet& set = sets[end];
      const std::size_t est_bins = std::min(
          set.compacted ? std::size_t{1024}
                        : std::size_t{1} << set.observation_bits,
          samples_total);
      std::size_t bytes = est_bins * kBytesPerBin;
      if (!set.compacted)
        bytes = std::max(bytes,
                         master_bytes(set.observation_bits) +
                             stats::CarryCountTable::bytes(set.observation_bits));
      if (end > begin && budget_used + bytes > batch_budget) break;
      budget_used += bytes;
    }
    batches.emplace_back(begin, end);
    begin = end;
  }
  return batches;
}

// Configuration fingerprint: everything a snapshot's validity depends on —
// seed, budget, chunk/stage/batch grids, sampling parameters, and the
// prepared probe sets. Thread count and lane width are deliberately
// excluded (the statistics are bit-identical across both by contract, so
// resuming across them is sound), and neither driver's grid depends on
// them. A sample-major campaign feeds its batch grid; a set-major campaign
// feeds a driver tag instead: it has no batch grid and its snapshots hold
// no tables. Snapshots of both resume at any thread count. The
// accumulation plan (hosting, sharding, CSE structure) is excluded too: it
// is a pure function of the prepared sets and the options, snapshots carry
// fully materialized per-set tables, and hosted masters recompute their
// marginal from scratch after every stage — so a snapshot resumes under
// any plan layout, and with it any thread count (asserted by tests).
std::uint64_t campaign_fingerprint(const CampaignOptions& options,
                                   const detail::InputFeeder& feeder,
                                   const ChunkGrid& grid,
                                   const std::vector<BatchRange>& batches,
                                   bool set_major,
                                   const std::vector<PreparedSet>& sets) {
  common::Fnv1a fp;
  fp.feed(options.seed)
      .feed(static_cast<std::uint64_t>(grid.runs_per_group))
      .feed(static_cast<std::uint64_t>(grid.runs_per_chunk))
      .feed(static_cast<std::uint64_t>(grid.num_chunks))
      .feed(static_cast<std::uint64_t>(feeder.samples_per_run))
      .feed(static_cast<std::uint64_t>(options.sample_interval))
      .feed(static_cast<std::uint64_t>(options.warmup_cycles))
      .feed(static_cast<std::uint64_t>(options.order))
      .feed(static_cast<std::uint64_t>(options.model))
      .feed(static_cast<std::uint64_t>(options.statistic))
      .feed(static_cast<std::uint64_t>(options.null_calibration ? 1 : 0))
      .feed(options.threshold);
  for (std::size_t b : grid.stage_bounds)
    fp.feed(static_cast<std::uint64_t>(b));
  if (set_major) {
    fp.feed(std::string("set-major"));
  } else {
    for (const auto& [bb, be] : batches)
      fp.feed(static_cast<std::uint64_t>(bb))
          .feed(static_cast<std::uint64_t>(be));
  }
  for (const PreparedSet& p : sets)
    fp.feed(p.name).feed(static_cast<std::uint64_t>(p.observation_bits));
  return fp.value();
}

// --- batches and stages -------------------------------------------------------

// One table batch: its set range, its compiled accumulation plan, and the
// signals its samples snapshot (the plan's observation-matrix rows).
struct Batch {
  BatchRange range;
  accplan::AccumulationPlan plan;
  std::vector<SignalId> row_signals;
};

// Compiles the batch's accumulation plan: regimes, subset hosting,
// shared-trie / shared-block CSE, and the shard partition. The plan is a
// pure function of the prepared sets and the options, so it needs no
// fingerprint coverage and no snapshot state.
Batch compile_batch(const detail::PreparedSets& prepared, BatchRange range,
                    bool transitions, bool ttest, unsigned shards) {
  Batch batch;
  batch.range = range;
  std::vector<accplan::PlanSetInput> inputs;
  inputs.reserve(range.second - range.first);
  for (std::size_t si = range.first; si < range.second; ++si)
    inputs.push_back({&prepared.sets[si].dense,
                      prepared.sets[si].observation_bits,
                      prepared.sets[si].compacted});
  batch.plan = accplan::compile_accumulation_plan(
      inputs, accplan::PlanOptions{transitions, ttest, shards});
  batch.row_signals.reserve(batch.plan.rows.size());
  for (std::size_t r : batch.plan.rows)
    batch.row_signals.push_back(prepared.stable_points[r]);
  return batch;
}

// Workers that hold tables for a sample-major batch: as many as the table
// budget leaves room for next to the batch's masters, at least one and at
// most the thread count. Capping workers, never the grid, keeps a batch's
// memory within the budget at any thread count.
unsigned batch_workers(const Batch& batch, const CampaignSnapshot& state,
                       std::size_t budget, unsigned threads) {
  std::size_t masters = 0, worker = 0;
  for (std::size_t l = 0; l < state.sets.size(); ++l) {
    const unsigned key_bits = state.sets[l].key_bits();
    masters += master_bytes(key_bits);
    if (batch.plan.sets[l].regime != accplan::AccRegime::kHosted)
      worker += stats::CarryCountTable::bytes(key_bits);
  }
  if (worker == 0 || masters + worker >= budget) return 1;
  return static_cast<unsigned>(std::clamp<std::size_t>(
      (budget - masters) / worker, 1, threads));
}

// Everything a stage pass reads but never writes.
struct StageContext {
  const CampaignOptions& options;
  const detail::InputFeeder& feeder;
  const sim::Schedule& schedule;
  const ChunkGrid& grid;
  unsigned threads = 1;
  bool transitions = false;
};

// One simulation pass over the chunks [chunk_begin, chunk_end) — one
// evaluation stage — accumulating the batch's live sets into their master
// tables (state.sets) under the compiled plan, scheduled over the worker
// pool as (chunk x shard) cells on `workers` workers. Each worker
// accumulates every cell it runs into its own tables and adds them to the
// masters once, when it drains. Integer adds commute, so neither the cell
// order nor the worker count can change a count, and the concatenation of
// stage passes stays bit-identical to one full pass. Hosted sets get no accumulator at all —
// their counts are marginalized from their host after the stage.
void run_stage(const StageContext& cx, const Batch& batch, unsigned workers,
               std::size_t chunk_begin, std::size_t chunk_end,
               CampaignSnapshot& state, SubPhaseSeconds& sub) {
  const accplan::AccumulationPlan& plan = batch.plan;
  std::vector<stats::FlatCountTable>& masters = state.sets;
  const std::size_t shards = plan.shards.size();
  const auto live = [&](std::size_t l) {
    return plan.sets[l].regime != accplan::AccRegime::kHosted;
  };
  std::mutex merge_mutex;
  common::parallel_for_stateful(
      (chunk_end - chunk_begin) * shards, workers,
      [&] {
        WorkerCtx ctx(cx.schedule);
        ctx.tables.resize(masters.size());
        for (std::size_t l = 0; l < masters.size(); ++l)
          if (live(l))
            ctx.tables[l] = stats::CarryCountTable(masters[l].key_bits());
        return ctx;
      },
      [&](WorkerCtx& ctx, std::size_t cell) {
        const std::size_t chunk = chunk_begin + cell / shards;
        const common::CounterPrg prg(cx.options.seed);
        const unsigned limbs = ctx.simulator.limbs();
        const std::size_t run_end = cx.grid.runs_before(chunk + 1);
        // One iteration simulates limbs() 64-lane runs at once; the last
        // wide run of the chunk may carry a tail (active < limbs), whose
        // inactive limbs are fed nothing and accumulated never.
        for (std::size_t run = cx.grid.runs_before(chunk); run < run_end;
             run += limbs) {
          const unsigned active =
              static_cast<unsigned>(std::min<std::size_t>(limbs, run_end - run));
          const auto sim_start = Clock::now();
          detail::produce_samples(ctx.simulator, cx.feeder, prg, run, active,
                                  cx.transitions, batch.row_signals,
                                  ctx.samples);
          const auto acc_start = Clock::now();
          ctx.simulate_seconds += seconds_between(sim_start, acc_start);
          execute_plan_shard(plan, cell % shards, ctx.samples, cx.transitions,
                             ctx);
          ctx.accumulate_seconds += seconds_between(acc_start, Clock::now());
        }
      },
      [&](WorkerCtx& ctx) {
        // Worker drained: add its tables and phase timers to the masters
        // under the merge lock, in whatever order the workers finish.
        std::lock_guard<std::mutex> lock(merge_mutex);
        const auto merge_start = Clock::now();
        for (std::size_t l = 0; l < masters.size(); ++l)
          if (live(l)) ctx.tables[l].add_to(masters[l]);
        state.merge_seconds += seconds_between(merge_start, Clock::now());
        state.simulate_seconds += ctx.simulate_seconds;
        state.accumulate_seconds += ctx.accumulate_seconds;
        sub.extract += ctx.sub.extract;
        sub.transpose += ctx.sub.transpose;
        sub.histogram += ctx.sub.histogram;
      });
  // Sharded cells re-simulate their chunk once per shard (counted as
  // cycles actually spent); the observation count is per unique run.
  const std::size_t runs =
      cx.grid.runs_before(chunk_end) - cx.grid.runs_before(chunk_begin);
  state.total_cycles += runs * 2 * cx.feeder.cycles_per_group * shards;
  state.simulations_done += runs * cx.grid.observations_per_run;
}

// Hosted sets' master tables are exact integer marginals of their host's —
// recomputed from scratch after every stage, so interim statistics,
// snapshots, and finalization all see tables bit-identical to per-set
// accumulation (and a snapshot resumes under any plan layout: the marginal
// only ever derives from the host's cumulative master).
void materialize_hosted(const Batch& batch, CampaignSnapshot& state) {
  if (batch.plan.finalize_order.empty()) return;
  const auto t0 = Clock::now();
  for (std::uint32_t idx : batch.plan.finalize_order) {
    const accplan::SetAccPlan& sp = batch.plan.sets[idx];
    state.sets[idx].clear();
    state.sets[idx].add_marginalized(state.sets[sp.host], sp.host_mask);
  }
  state.merge_seconds += seconds_between(t0, Clock::now());
}

// Worst severity and leak count over a run of probe sets.
struct Verdict {
  double max = 0.0;
  std::string worst;
  std::size_t leaks = 0;

  void add(const std::string& name, double severity, double threshold) {
    if (severity > threshold) ++leaks;
    if (severity > max) {
      max = severity;
      worst = name;
    }
  }
};

double severity_of(const stats::FlatCountTable& table, bool ttest) {
  return ttest ? std::abs(detail::hw_t_test(table).t)
               : table.g_test().minus_log10_p;
}

// A finalized set's result shell: the prepared set's identity, moved out
// (each set is finalized exactly once), with no statistic yet.
ProbeSetResult take_result(PreparedSet& p) {
  ProbeSetResult r;
  r.name = std::move(p.name);
  r.representatives = std::move(p.representatives);
  r.observation_bits = p.observation_bits;
  r.compacted = p.compacted;
  r.aliases = std::move(p.aliases);
  return r;
}

// Finalizes a batch's sets from their master tables — under early
// stopping, from their partial counts — and releases the tables.
void finalize_batch(detail::PreparedSets& prepared, const Batch& batch,
                    bool ttest, double threshold, CampaignSnapshot& state,
                    Verdict& finished) {
  for (std::size_t l = 0; l < state.sets.size(); ++l) {
    ProbeSetResult r = take_result(prepared.sets[batch.range.first + l]);
    if (ttest) {
      r.t = detail::hw_t_test(state.sets[l]);
      r.severity = std::abs(r.t.t);
    } else {
      r.g = state.sets[l].g_test();
      r.severity = r.g.minus_log10_p;
    }
    r.minus_log10_p = r.severity;
    finished.add(r.name, r.severity, threshold);
    state.finished.push_back(std::move(r));
  }
  state.sets = {};
}

// Checks a loaded snapshot against this campaign's configuration; every
// restored table must span the key space its set's table has here.
void check_snapshot(const CampaignSnapshot& snap, std::uint64_t fingerprint,
                    const ChunkGrid& grid,
                    const std::vector<BatchRange>& batches,
                    const detail::PreparedSets& prepared, bool transitions,
                    bool ttest, bool set_major) {
  require(snap.fingerprint == fingerprint,
          "campaign: checkpoint does not match this campaign "
          "configuration (different netlist, seed, budget, or schedule)");
  require(snap.num_chunks == grid.num_chunks &&
              snap.batches_total == batches.size() &&
              snap.batch_index <= batches.size(),
          "campaign: checkpoint cursor out of range");
  require(snap.complete || snap.batch_index < batches.size(),
          "campaign: incomplete checkpoint past the last batch");
  require(snap.complete || snap.stages_done < grid.stages(),
          "campaign: checkpoint stage cursor out of range");
  require(snap.finished.size() == (snap.batch_index < batches.size()
                                       ? batches[snap.batch_index].first
                                       : prepared.sets.size()),
          "campaign: checkpoint finished-set count mismatch");
  // Only a sample-major mid-batch snapshot carries tables (its batch's, in
  // order); a set-major one re-simulates its prefix instead.
  const bool mid_batch = !set_major && !snap.complete && snap.stages_done > 0;
  const auto [bb, be] = mid_batch ? batches[snap.batch_index] : BatchRange{};
  require(snap.sets.size() == be - bb,
          "campaign: checkpoint accumulator count mismatch");
  for (std::size_t i = 0; i < snap.sets.size(); ++i)
    require(snap.sets[i].key_bits() ==
                detail::table_key_bits(prepared.sets[bb + i], transitions,
                                       ttest),
            "campaign: checkpoint table key space mismatch");
}

StageReport stage_report(const ChunkGrid& grid, std::size_t stage,
                         const Verdict& verdict, double stage_secs,
                         const CampaignSnapshot& state,
                         const SubPhaseSeconds& sub) {
  StageReport rep;
  rep.stage = stage;
  rep.stages_total = grid.stages();
  const std::size_t runs_done = grid.runs_before(grid.stage_bounds[stage]);
  const std::size_t runs_prev = grid.runs_before(grid.stage_bounds[stage - 1]);
  rep.simulations_done = runs_done * grid.observations_per_run;
  rep.simulations_total = grid.runs_per_group * grid.observations_per_run;
  rep.max_minus_log10_p = verdict.max;
  rep.worst_set = verdict.worst;
  rep.leaking_sets = verdict.leaks;
  rep.pass_so_far = verdict.leaks == 0;
  rep.stage_seconds = stage_secs;
  rep.sims_per_second =
      stage_secs > 0.0 ? 2.0 *
                             static_cast<double>((runs_done - runs_prev) *
                                                 grid.observations_per_run) /
                             stage_secs
                       : 0.0;
  rep.simulate_seconds = state.simulate_seconds;
  rep.accumulate_seconds = state.accumulate_seconds;
  rep.merge_seconds = state.merge_seconds;
  rep.extract_seconds = sub.extract;
  rep.transpose_seconds = sub.transpose;
  rep.histogram_seconds = sub.histogram;
  rep.early_stopped = state.early_stopped;
  return rep;
}

// --- the two drivers ------------------------------------------------------------

// What both drivers share: the campaign's read-only setup, its
// checkpointable state, and this process's progress.
struct Driver {
  Driver(const CampaignOptions& options_in, const StageContext& cx_in,
         detail::PreparedSets& prepared_in,
         const std::vector<BatchRange>& batches_in, bool ttest_in,
         double threshold_in)
      : options(options_in),
        cx(cx_in),
        prepared(prepared_in),
        batches(batches_in),
        ttest(ttest_in),
        threshold(threshold_in) {}

  const CampaignOptions& options;
  const StageContext& cx;
  detail::PreparedSets& prepared;
  const std::vector<BatchRange>& batches;
  const bool ttest;
  const double threshold;

  // The (batch, stage) cursor, the running totals, the finalized results,
  // and the in-progress batch's master tables; resume continues from a
  // matching snapshot's state.
  CampaignSnapshot state;
  Verdict finished;  // over state.finished
  SubPhaseSeconds sub;
  std::size_t stages_completed = 0;
  unsigned stages_run_here = 0;
  bool interrupted = false;
  std::size_t hosted_total = 0;
  std::size_t max_set_shards = 1;

  // Interim statistics cost a statistic per set per stage; skip them when
  // nobody observes them (no stage callback, no early stopping).
  bool want_interim() const {
    return options.early_stop_stages > 0 || bool(options.on_stage);
  }

  // Counts a stage whose worst severity so far is `so_far` toward the
  // early-stop streak.
  void track_early_stop(const Verdict& so_far) {
    if (options.early_stop_stages == 0) return;
    const bool over = so_far.max > threshold + options.early_stop_margin;
    state.streak = over ? state.streak + 1 : 0;
    if (state.streak >= options.early_stop_stages) state.early_stopped = true;
  }

  void checkpoint() const {
    if (!options.checkpoint_path.empty())
      save_checkpoint(options.checkpoint_path, state);
  }

  // The stop_after_stage testing hook fired (a simulated kill).
  bool stop_requested() const {
    return options.stop_after_stage &&
           stages_run_here >= options.stop_after_stage;
  }

  void emit(std::size_t batch, std::size_t stage, const Verdict& verdict,
            double stage_secs) const {
    if (!options.on_stage) return;
    StageReport rep =
        stage_report(cx.grid, stage, verdict, stage_secs, state, sub);
    rep.batch = batch + 1;
    rep.batches_total = batches.size();
    rep.aliased_probe_sets = prepared.aliases;
    if (!options.checkpoint_path.empty())
      rep.checkpoint_path = options.checkpoint_path;
    options.on_stage(rep);
  }
};

// The sample-major driver: per table batch, one simulation pass per stage
// accumulating the batch's live sets under its compiled plan.
void drive_sample_major(Driver& d, unsigned shard_target) {
  const ChunkGrid& grid = d.cx.grid;
  CampaignSnapshot& state = d.state;
  while (state.batch_index < d.batches.size() && !state.complete &&
         !d.interrupted && !state.early_stopped) {
    const std::size_t b = state.batch_index;
    const BatchRange range = d.batches[b];
    const Batch batch = compile_batch(d.prepared, range, d.cx.transitions,
                                      d.ttest, shard_target);
    d.hosted_total += batch.plan.hosted_sets;
    d.max_set_shards = std::max(d.max_set_shards, batch.plan.shards.size());
    // A batch's master tables exist only while it runs; a snapshot taken
    // mid-batch has restored them already.
    if (state.stages_done == 0)
      for (std::size_t si = range.first; si < range.second; ++si)
        state.sets.emplace_back(detail::table_key_bits(
            d.prepared.sets[si], d.cx.transitions, d.ttest));
    const unsigned workers = batch_workers(
        batch, state, d.options.table_memory_budget, d.cx.threads);

    double stage_secs = 0.0;
    while (true) {
      const std::size_t s = state.stages_done;
      const auto stage_start = Clock::now();
      run_stage(d.cx, batch, workers, grid.stage_bounds[s],
                grid.stage_bounds[s + 1], state, d.sub);
      materialize_hosted(batch, state);
      stage_secs = seconds_between(stage_start, Clock::now());
      ++state.stages_done;
      ++d.stages_completed;
      ++d.stages_run_here;

      // Interim verdict-so-far over the batch's master tables, on top of
      // the finalized-batch baseline.
      Verdict so_far = d.finished;
      if (d.want_interim()) {
        for (std::size_t l = 0; l < state.sets.size(); ++l)
          so_far.add(d.prepared.sets[range.first + l].name,
                     severity_of(state.sets[l], d.ttest), d.threshold);
        d.track_early_stop(so_far);
      }
      // Batch (or campaign) done: finalize below, then snapshot/report
      // with exact statistics.
      if (state.stages_done == grid.stages() || state.early_stopped) break;
      d.checkpoint();
      d.emit(b, state.stages_done, so_far, stage_secs);
      if (d.stop_requested()) {
        // Simulated kill: leave the snapshot on disk, return a partial
        // result flagged `interrupted`.
        d.interrupted = true;
        break;
      }
    }
    if (d.interrupted) break;

    finalize_batch(d.prepared, batch, d.ttest, d.threshold, state,
                   d.finished);
    const std::size_t final_stage = state.stages_done;
    state.batch_index = b + 1;
    state.stages_done = 0;
    state.complete = state.early_stopped || b + 1 == d.batches.size();
    d.checkpoint();
    d.emit(b, final_stage, d.finished, stage_secs);
    if (!state.complete && d.stop_requested()) d.interrupted = true;
  }
}

// --- set-major driver -----------------------------------------------------------
//
// Set-heavy, sample-light campaigns (order 2 over a whole gadget: tens of
// thousands of sets, tens of thousands of samples) spend the sample-major
// driver's time on per-set direct tables rather than on simulation: every
// table batch re-simulates, allocates, merges and finalizes up to 1 MiB
// per set. The set-major driver turns the loops around. It simulates each
// stage's runs once into a resident packed trace, then runs one
// parallel_for over the plan's host groups: a work item counts its root
// set's keys from the trace into a reusable per-worker direct table,
// finalizes the root and every set it hosts (an exact integer marginal of
// the root's counts) over their observed keys in ascending order, and
// leaves the table zeroed for the next item. The counts are the
// sample-major driver's, so every statistic is bit-identical to it.

// The packed observation trace: per group, one sample per (64-lane run,
// sample point, lane) in run order, `words` words each. Bit c of a sample
// is plan row c at the sample cycle and, under transitions, bit rows + c
// is the same row a cycle before. A stage is a prefix of every group's
// samples.
struct Trace {
  std::size_t rows = 0;
  std::size_t words = 0;
  std::size_t per_group = 0;  // samples per group over the whole budget
  std::vector<std::uint64_t> bits;

  const std::uint64_t* group(int g) const {
    return bits.data() + static_cast<std::size_t>(g) * per_group * words;
  }
};

std::size_t trace_words(std::size_t rows, bool transitions) {
  return common::ceil_div(rows * (transitions ? 2 : 1), 64);
}

// The stable points some set observes: the trace's rows, and the rows of a
// plan compiled over all sets.
std::size_t observed_points(const detail::PreparedSets& prepared) {
  std::vector<bool> seen(prepared.stable_points.size());
  std::size_t points = 0;
  for (const PreparedSet& p : prepared.sets)
    for (std::size_t d : p.dense)
      if (!seen[d]) {
        seen[d] = true;
        ++points;
      }
  return points;
}

// The driver rule, a pure function of the workload and the budget (never
// of threads or lanes): set-major iff the sample-major driver would need
// more than one table batch even with the whole budget, so it would
// re-simulate at any thread count, and the packed trace fits the budget.
bool choose_set_major(const detail::PreparedSets& prepared,
                      std::size_t samples_total, bool transitions,
                      std::size_t budget) {
  if (plan_batches(prepared.sets, samples_total, budget).size() <= 1)
    return false;
  return samples_total *
             trace_words(observed_points(prepared), transitions) *
             sizeof(std::uint64_t) <=
         budget;
}

struct TraceWorker {
  explicit TraceWorker(const sim::Schedule& schedule) : simulator(schedule) {}
  sim::Simulator simulator;
  std::vector<Sample> samples;
  double seconds = 0.0;
};

// Simulates the chunks [chunk_begin, chunk_end) into the trace, one chunk
// per work item: each wide run's samples are transposed 64 rows at a time
// into per-lane trace words.
void fill_trace(const StageContext& cx, const std::vector<SignalId>& signals,
                std::size_t chunk_begin, std::size_t chunk_end, Trace& trace,
                CampaignSnapshot& state) {
  const std::size_t spr = cx.feeder.samples_per_run;
  const std::size_t codes = trace.rows * (cx.transitions ? 2 : 1);
  std::mutex mutex;
  common::parallel_for_stateful(
      chunk_end - chunk_begin, cx.threads,
      [&] { return TraceWorker(cx.schedule); },
      [&](TraceWorker& w, std::size_t item) {
        const auto start = Clock::now();
        const std::size_t chunk = chunk_begin + item;
        const common::CounterPrg prg(cx.options.seed);
        const unsigned limbs = w.simulator.limbs();
        const std::size_t run_end = cx.grid.runs_before(chunk + 1);
        std::uint64_t block[64];
        for (std::size_t run = cx.grid.runs_before(chunk); run < run_end;
             run += limbs) {
          const unsigned active = static_cast<unsigned>(
              std::min<std::size_t>(limbs, run_end - run));
          detail::produce_samples(w.simulator, cx.feeder, prg, run, active,
                                  cx.transitions, signals, w.samples);
          for (std::size_t k = 0; k < w.samples.size(); ++k) {
            const Sample& s = w.samples[k];
            const std::size_t point = k % spr;  // fixed group first
            for (unsigned b = 0; b < active; ++b) {
              std::uint64_t* const dst =
                  trace.bits.data() +
                  (static_cast<std::size_t>(s.group) * trace.per_group +
                   ((run + b) * spr + point) * 64) *
                      trace.words;
              for (std::size_t word = 0; word < trace.words; ++word) {
                for (std::size_t i = 0; i < 64; ++i) {
                  const std::size_t code = word * 64 + i;
                  block[i] = code < trace.rows ? s.now[code * limbs + b]
                             : code < codes
                                 ? s.prev[(code - trace.rows) * limbs + b]
                                 : 0;
                }
                common::transpose64(block);
                for (std::size_t lane = 0; lane < 64; ++lane)
                  dst[lane * trace.words + word] = block[lane];
              }
            }
          }
        }
        w.seconds += seconds_between(start, Clock::now());
      },
      [&](TraceWorker& w) {
        std::lock_guard<std::mutex> lock(mutex);
        state.simulate_seconds += w.seconds;
      });
  const std::size_t runs =
      cx.grid.runs_before(chunk_end) - cx.grid.runs_before(chunk_begin);
  state.total_cycles += runs * 2 * cx.feeder.cycles_per_group;
  state.simulations_done += runs * cx.grid.observations_per_run;
}

// One trace word's share of a compacted or t-test root's weights.
struct WeightMasks {
  std::uint32_t word = 0;
  std::uint64_t now = 0;
  std::uint64_t prev = 0;
};

// A host group: a root set counted from the trace, and the sets finalized
// as marginals of the root's counts.
struct HostGroup {
  std::uint32_t root = 0;
  accplan::AccRegime regime = accplan::AccRegime::kNarrow;
  unsigned key_bits = 0;
  std::vector<accplan::PackedGather> gathers;  // exact roots: pext recipe
  std::vector<WeightMasks> weights;            // compacted / t-test roots
  unsigned hw_shift = 0;                       // compacted roots
  std::vector<std::uint32_t> hosted;
  std::vector<std::uint64_t> hosted_masks;  // key bits inside the root key
};

// The bits of `base` at the ranks (among base's set bits) selected by
// `ranks` — a parallel bit deposit, composing host masks along a chain.
std::uint64_t deposit_ranks(std::uint64_t ranks, std::uint64_t base) {
  std::uint64_t out = 0;
  for (unsigned r = 0; base != 0; base &= base - 1, ++r)
    if ((ranks >> r) & 1u) out |= base & (~base + 1);
  return out;
}

// Groups the plan's sets under their live roots. A hosted set's key mask
// is composed down its host chain, so every set marginalizes straight
// from its root's counts.
std::vector<HostGroup> host_groups(const accplan::AccumulationPlan& plan,
                                   const detail::PreparedSets& prepared,
                                   const Trace& trace, bool transitions,
                                   bool ttest) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<HostGroup> groups;
  std::vector<std::uint32_t> group_of(plan.sets.size(), kNone);
  for (std::uint32_t i = 0; i < plan.sets.size(); ++i) {
    const accplan::SetAccPlan& sp = plan.sets[i];
    if (sp.regime == accplan::AccRegime::kHosted) continue;
    HostGroup g;
    g.root = i;
    g.regime = sp.regime;
    g.key_bits = detail::table_key_bits(prepared.sets[i], transitions, ttest);
    // Key codes in key-bit order: now rows ascending, then prev rows.
    std::vector<std::size_t> codes(sp.rows.begin(), sp.rows.end());
    if (transitions)
      for (std::uint32_t r : sp.rows) codes.push_back(trace.rows + r);
    if (sp.regime == accplan::AccRegime::kNarrow ||
        sp.regime == accplan::AccRegime::kPacked) {
      std::uint8_t key_bit = 0;
      for (std::size_t code : codes) {
        const auto word = static_cast<std::uint32_t>(code / 64);
        const std::uint64_t bit = std::uint64_t{1} << (code % 64);
        if (!g.gathers.empty() && g.gathers.back().block == word)
          g.gathers.back().mask |= bit;
        else
          g.gathers.push_back({word, bit, key_bit});
        ++key_bit;
      }
    } else {
      g.hw_shift = detail::hp_bits(sp.rows.size(), transitions);
      for (std::size_t k = 0; k < codes.size(); ++k) {
        const auto word = static_cast<std::uint32_t>(codes[k] / 64);
        const std::uint64_t bit = std::uint64_t{1} << (codes[k] % 64);
        auto it = std::find_if(g.weights.begin(), g.weights.end(),
                               [&](const WeightMasks& m) {
                                 return m.word == word;
                               });
        if (it == g.weights.end())
          it = g.weights.insert(g.weights.end(), WeightMasks{word, 0, 0});
        (k < sp.rows.size() ? it->now : it->prev) |= bit;
      }
    }
    group_of[i] = static_cast<std::uint32_t>(groups.size());
    groups.push_back(std::move(g));
  }
  // finalize_order lists hosts before their dependents.
  std::vector<std::uint64_t> mask_in_root(plan.sets.size(), 0);
  for (std::uint32_t i : plan.finalize_order) {
    const accplan::SetAccPlan& sp = plan.sets[i];
    mask_in_root[i] =
        plan.sets[sp.host].regime == accplan::AccRegime::kHosted
            ? deposit_ranks(sp.host_mask, mask_in_root[sp.host])
            : sp.host_mask;
    group_of[i] = group_of[sp.host];
    HostGroup& g = groups[group_of[i]];
    g.hosted.push_back(i);
    g.hosted_masks.push_back(mask_in_root[i]);
  }
  // Widest roots first, so the long work items start early.
  std::stable_sort(groups.begin(), groups.end(),
                   [](const HostGroup& a, const HostGroup& b) {
                     return a.key_bits > b.key_bits;
                   });
  return groups;
}

// One set's statistic from a set-major pass.
struct SetStat {
  stats::GTestResult g;
  stats::TTestResult t;
  double severity = 0.0;
};

struct GroupWorker {
  explicit GroupWorker(unsigned max_key_bits)
      : root(std::size_t{2} << max_key_bits, 0),
        hosted(std::size_t{2} << max_key_bits, 0) {}
  // Direct count tables, entry 2 * key + group; all zero between items.
  std::vector<std::uint64_t> root;
  std::vector<std::uint64_t> hosted;
  std::vector<std::uint64_t> keys;  // the root's observed keys, ascending
  std::vector<std::array<std::uint64_t, 2>> cols;  // their counts
  std::vector<std::array<std::uint64_t, 2>> hosted_cols;
  double seconds = 0.0;
  double count_seconds = 0.0;
};

// Counts key(sample) over the first `samples` samples of both groups.
template <typename KeyFn>
void count_keys(const Trace& trace, std::size_t samples, std::uint64_t* counts,
                KeyFn key) {
  for (int g = 0; g < 2; ++g) {
    const std::uint64_t* s = trace.group(g);
    for (std::size_t i = 0; i < samples; ++i, s += trace.words)
      ++counts[2 * key(s) + static_cast<std::size_t>(g)];
  }
}

// Moves the observed keys of a `key_bits` table into `cols` in ascending
// key order (and, if `keys` is given, the keys themselves), zeroing the
// table behind them.
void drain_table(std::uint64_t* counts, unsigned key_bits,
                 std::vector<std::array<std::uint64_t, 2>>& cols,
                 std::vector<std::uint64_t>* keys) {
  cols.clear();
  if (keys) keys->clear();
  const std::size_t space = std::size_t{1} << key_bits;
  for (std::size_t k = 0; k < space; ++k) {
    const std::uint64_t c0 = counts[2 * k];
    const std::uint64_t c1 = counts[2 * k + 1];
    if ((c0 | c1) == 0) continue;
    cols.push_back({c0, c1});
    if (keys) keys->push_back(k);
    counts[2 * k] = 0;
    counts[2 * k + 1] = 0;
  }
}

SetStat finalize_columns(const std::vector<std::array<std::uint64_t, 2>>& cols,
                         const std::vector<std::uint64_t>& keys,
                         unsigned key_bits, bool ttest) {
  SetStat st;
  if (ttest) {
    stats::FlatCountTable table(key_bits);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      table.add(keys[j], 0, cols[j][0]);
      table.add(keys[j], 1, cols[j][1]);
    }
    st.t = detail::hw_t_test(table);
    st.severity = std::abs(st.t.t);
  } else {
    st.g = stats::g_test_columns(cols);
    st.severity = st.g.minus_log10_p;
  }
  return st;
}

// One work item: counts the group's root over the first `samples` samples
// of each group, then finalizes the root and its hosted sets.
void evaluate_group(const HostGroup& g, const Trace& trace, std::size_t samples,
                    bool ttest, GroupWorker& w, std::vector<SetStat>& out) {
  const auto t0 = Clock::now();
  std::uint64_t* const counts = w.root.data();
  if (!g.gathers.empty()) {
    count_keys(trace, samples, counts, [&](const std::uint64_t* s) {
      std::uint64_t key = 0;
      for (const accplan::PackedGather& ga : g.gathers)
        key |= common::extract_bits64(s[ga.block], ga.mask) << ga.shift;
      return key;
    });
  } else {
    const auto weights = [&](const std::uint64_t* s, unsigned& hn,
                             unsigned& hp) {
      hn = hp = 0;
      for (const WeightMasks& m : g.weights) {
        hn += static_cast<unsigned>(common::popcount64(s[m.word] & m.now));
        hp += static_cast<unsigned>(common::popcount64(s[m.word] & m.prev));
      }
    };
    if (ttest) {
      count_keys(trace, samples, counts, [&](const std::uint64_t* s) {
        unsigned hn, hp;
        weights(s, hn, hp);
        return std::uint64_t{hn + hp};
      });
    } else {
      count_keys(trace, samples, counts, [&](const std::uint64_t* s) {
        unsigned hn, hp;
        weights(s, hn, hp);
        return (std::uint64_t{hn} << g.hw_shift) | hp;
      });
    }
  }
  const auto t1 = Clock::now();
  drain_table(counts, g.key_bits, w.cols, &w.keys);
  out[g.root] = finalize_columns(w.cols, w.keys, g.key_bits, ttest);
  for (std::size_t h = 0; h < g.hosted.size(); ++h) {
    const std::uint64_t mask = g.hosted_masks[h];
    for (std::size_t j = 0; j < w.keys.size(); ++j) {
      const std::size_t key =
          static_cast<std::size_t>(common::extract_bits64(w.keys[j], mask));
      w.hosted[2 * key] += w.cols[j][0];
      w.hosted[2 * key + 1] += w.cols[j][1];
    }
    drain_table(w.hosted.data(),
                static_cast<unsigned>(common::popcount64(mask)), w.hosted_cols,
                nullptr);
    out[g.hosted[h]] = finalize_columns(w.hosted_cols, {}, 0, false);
  }
  w.count_seconds += seconds_between(t0, t1);
  w.seconds += seconds_between(t0, Clock::now());
}

// Evaluates every set over the first `samples` samples of each group.
void evaluate_groups(const StageContext& cx,
                     const std::vector<HostGroup>& groups, const Trace& trace,
                     std::size_t samples, bool ttest, unsigned max_key_bits,
                     std::vector<SetStat>& out, CampaignSnapshot& state,
                     SubPhaseSeconds& sub) {
  std::mutex mutex;
  common::parallel_for_stateful(
      groups.size(), cx.threads, [&] { return GroupWorker(max_key_bits); },
      [&](GroupWorker& w, std::size_t i) {
        evaluate_group(groups[i], trace, samples, ttest, w, out);
      },
      [&](GroupWorker& w) {
        std::lock_guard<std::mutex> lock(mutex);
        state.accumulate_seconds += w.seconds;
        sub.histogram += w.count_seconds;
      });
}

// The set-major driver. Its snapshots carry the cursor and the totals but
// no tables: a resumed run re-simulates the snapshot's prefix, which the
// counter PRG makes bit-identical, and recounts from the trace.
void drive_set_major(Driver& d) {
  CampaignSnapshot& state = d.state;
  if (state.complete) return;
  const StageContext& cx = d.cx;
  const ChunkGrid& grid = cx.grid;
  const std::size_t n = d.prepared.sets.size();
  std::vector<accplan::PlanSetInput> inputs;
  inputs.reserve(n);
  for (const PreparedSet& p : d.prepared.sets)
    inputs.push_back({&p.dense, p.observation_bits, p.compacted});
  const accplan::AccumulationPlan plan = accplan::compile_accumulation_plan(
      inputs, accplan::PlanOptions{cx.transitions, d.ttest, 1});
  d.hosted_total = plan.hosted_sets;

  Trace trace;
  trace.rows = plan.rows.size();
  trace.words = trace_words(trace.rows, cx.transitions);
  trace.per_group = grid.runs_per_group * grid.observations_per_run;
  trace.bits.assign(2 * trace.per_group * trace.words, 0);
  std::vector<SignalId> signals;
  signals.reserve(plan.rows.size());
  for (std::size_t r : plan.rows)
    signals.push_back(d.prepared.stable_points[r]);
  const std::vector<HostGroup> groups =
      host_groups(plan, d.prepared, trace, cx.transitions, d.ttest);
  const unsigned max_key_bits = groups.empty() ? 0 : groups.front().key_bits;
  std::vector<SetStat> stats(n);

  if (state.stages_done > 0)
    fill_trace(cx, signals, 0, grid.stage_bounds[state.stages_done], trace,
               state);
  while (!d.interrupted) {
    const std::size_t s = state.stages_done;
    const auto stage_start = Clock::now();
    fill_trace(cx, signals, grid.stage_bounds[s], grid.stage_bounds[s + 1],
               trace, state);
    ++state.stages_done;
    ++d.stages_completed;
    ++d.stages_run_here;
    const bool last = state.stages_done == grid.stages();

    // Every stage recounts every group over the samples so far, so interim
    // statistics, early stopping and the final verdict see the same counts
    // the sample-major driver would.
    Verdict so_far = d.finished;
    if (last || d.want_interim()) {
      evaluate_groups(cx, groups, trace,
                      grid.runs_before(grid.stage_bounds[state.stages_done]) *
                          grid.observations_per_run,
                      d.ttest, max_key_bits, stats, state, d.sub);
      for (std::size_t i = 0; i < n; ++i)
        so_far.add(d.prepared.sets[i].name, stats[i].severity, d.threshold);
      d.track_early_stop(so_far);
    }
    const double stage_secs = seconds_between(stage_start, Clock::now());
    if (last || state.early_stopped) {
      for (std::size_t i = 0; i < n; ++i) {
        ProbeSetResult r = take_result(d.prepared.sets[i]);
        r.g = stats[i].g;
        r.t = stats[i].t;
        r.severity = stats[i].severity;
        r.minus_log10_p = r.severity;
        state.finished.push_back(std::move(r));
      }
      d.finished = so_far;
      const std::size_t final_stage = state.stages_done;
      state.batch_index = 1;
      state.stages_done = 0;
      state.complete = true;
      d.checkpoint();
      d.emit(0, final_stage, d.finished, stage_secs);
      return;
    }
    d.checkpoint();
    d.emit(0, state.stages_done, so_far, stage_secs);
    if (d.stop_requested()) d.interrupted = true;
  }
}

}  // namespace

std::vector<const ProbeSetResult*> CampaignResult::top(std::size_t n) const {
  std::vector<const ProbeSetResult*> out;
  for (const auto& r : results) {
    if (out.size() >= n) break;
    out.push_back(&r);
  }
  return out;
}

CampaignResult run_fixed_vs_random(const Netlist& nl,
                                   const CampaignOptions& options) {
  nl.validate();
  require(options.order >= 1 && options.order <= 2,
          "campaign: supported orders are 1 and 2");
  require(options.sample_interval >= 1, "campaign: sample_interval must be >= 1");
  const bool ttest = options.statistic == Statistic::kWelchTTest;
  require(!ttest || options.order == 1,
          "campaign: the Welch t-test statistic supports order 1 only");
  const bool transitions = options.model == ProbeModel::kGlitchTransition;
  const double threshold = ttest ? stats::kTvlaThreshold : options.threshold;

  detail::PreparedSets prepared = detail::prepare_probe_sets(nl, options);
  const detail::InputFeeder feeder(nl, options);

  // Shared read-only evaluation plan at the resolved lane width; every
  // worker simulator runs over it. The campaign only ever reads stable
  // points, so the tape is dead-gate-eliminated against them.
  sim::ScheduleOptions schedule_options;
  schedule_options.lanes = common::resolve_lanes(options.lanes);
  schedule_options.observed = prepared.stable_points;
  const sim::Schedule schedule(nl, schedule_options);
  const unsigned threads = common::resolve_threads(options.threads);
  const ChunkGrid grid = make_chunk_grid(options, feeder.samples_per_run);
  const std::size_t samples_total =
      2 * grid.runs_per_group * grid.observations_per_run;
  const bool set_major = choose_set_major(
      prepared, samples_total, transitions, options.table_memory_budget);

  // Probe-set shards for the 2-D (chunk x shard) schedule: when the chunk
  // grid alone cannot feed every thread (tiny campaigns), the live sets
  // split into shards and each (chunk, shard) cell re-simulates its chunk
  // while accumulating only its shard's sets. Simulation is cheap next to
  // accumulation on probe-heavy workloads, and shard membership is part of
  // the deterministic plan, so the statistics stay bit-identical.
  const unsigned shard_target =
      threads > 1 && grid.num_chunks < threads
          ? static_cast<unsigned>(
                common::ceil_div(std::size_t{threads}, grid.num_chunks))
          : 1;
  // A set-major campaign is one batch of every set.
  const std::vector<BatchRange> batches =
      set_major ? std::vector<BatchRange>{{0, prepared.sets.size()}}
                : plan_batches(prepared.sets, samples_total,
                               options.table_memory_budget);
  const std::uint64_t fingerprint = campaign_fingerprint(
      options, feeder, grid, batches, set_major, prepared.sets);

  const StageContext cx{options, feeder, schedule, grid, threads, transitions};
  Driver d(options, cx, prepared, batches, ttest, threshold);
  CampaignSnapshot& state = d.state;
  bool resumed = false;
  if (options.resume && !options.checkpoint_path.empty() &&
      std::ifstream(options.checkpoint_path, std::ios::binary).good()) {
    state = load_checkpoint(options.checkpoint_path);
    check_snapshot(state, fingerprint, grid, batches, prepared, transitions,
                   ttest, set_major);
    resumed = true;
  }
  state.fingerprint = fingerprint;
  state.num_chunks = grid.num_chunks;
  state.batches_total = batches.size();
  for (const ProbeSetResult& r : state.finished)
    d.finished.add(r.name, r.severity, threshold);
  state.finished.reserve(prepared.sets.size());
  d.stages_completed = state.batch_index * grid.stages() + state.stages_done;

  if (set_major)
    drive_set_major(d);
  else
    drive_sample_major(d, shard_target);

  CampaignResult result;
  result.model = options.model;
  result.order = options.order;
  result.statistic = options.statistic;
  result.total_sets = prepared.sets.size();
  result.dropped_sets = prepared.dropped;
  result.simulations_per_group = grid.runs_per_group * grid.observations_per_run;
  result.threads_used = threads;
  result.lanes_used = schedule.lanes();
  result.total_cycles = state.total_cycles;
  result.table_batches = set_major ? 1 : state.batch_index;
  result.set_major = set_major;
  result.simulate_seconds = state.simulate_seconds;
  result.accumulate_seconds = state.accumulate_seconds;
  result.merge_seconds = state.merge_seconds;
  result.extract_seconds = d.sub.extract;
  result.transpose_seconds = d.sub.transpose;
  result.histogram_seconds = d.sub.histogram;
  result.aliased_probe_sets = prepared.aliases;
  result.hosted_sets = d.hosted_total;
  result.set_shards = d.max_set_shards;
  result.stages_total = grid.stages();
  result.stages_completed = d.stages_completed;
  result.early_stopped = state.early_stopped;
  result.interrupted = d.interrupted;
  result.resumed = resumed;
  result.simulations_done = state.simulations_done;
  result.unevaluated_sets = prepared.sets.size() - state.finished.size();
  for (ProbeSetResult& r : state.finished) {
    r.leaking = r.severity > threshold;
    if (r.leaking) {
      result.pass = false;
      ++result.leaking_sets;
    }
    result.max_minus_log10_p =
        std::max(result.max_minus_log10_p, r.minus_log10_p);
    result.results.push_back(std::move(r));
  }
  std::sort(result.results.begin(), result.results.end(),
            [](const ProbeSetResult& a, const ProbeSetResult& b) {
              return a.minus_log10_p > b.minus_log10_p;
            });
  return result;
}

}  // namespace sca::eval
