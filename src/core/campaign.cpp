#include "src/core/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
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
// worker-lifetime count tables of the batch's live sets. Every table
// materializes its whole key space, so merging is a commutative integer
// add: a worker accumulates across every cell it runs and folds into the
// master exactly once (the thread pool's finalize hook), in any worker
// order, without costing determinism.
struct WorkerCtx {
  explicit WorkerCtx(const sim::Schedule& schedule) : simulator(schedule) {}
  sim::Simulator simulator;
  std::vector<Sample> samples;
  std::vector<stats::FlatCountTable> tables;
  std::vector<std::uint64_t> block_scratch;
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  SubPhaseSeconds sub;
};

// SCA_DEBUG_ACC=1 breaks the accumulate phase down by path (cumulative
// process-wide nanoseconds, printed to stderr after every campaign) — the
// profiling hook behind the kernel's throughput tuning.
struct AccPathNanos {
  std::atomic<std::uint64_t> ttest{0};
  std::atomic<std::uint64_t> compacted{0};
  std::atomic<std::uint64_t> narrow{0};
  std::atomic<std::uint64_t> packed{0};
};
AccPathNanos g_acc_path_nanos;

bool acc_debug_enabled() {
  static const bool on = std::getenv("SCA_DEBUG_ACC") != nullptr;
  return on;
}

void report_acc_debug() {
  if (!acc_debug_enabled()) return;
  const AccPathNanos& n = g_acc_path_nanos;
  std::fprintf(stderr,
               "accumulate paths (cumulative): ttest %.3fs "
               "compacted %.3fs narrow %.3fs packed %.3fs\n",
               n.ttest.load() * 1e-9, n.compacted.load() * 1e-9,
               n.narrow.load() * 1e-9, n.packed.load() * 1e-9);
}

void debug_charge(std::atomic<std::uint64_t>& bucket, Clock::time_point start,
                  Clock::time_point end) {
  if (acc_debug_enabled())
    bucket += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
}

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
      // counts at entry 2 * w.
      std::uint64_t* const h =
          ctx.tables[l].data() + static_cast<std::size_t>(sample.group);
      vc.clear();
      for (std::uint32_t r : sp.rows)
        vc.add(code_word<kLimbs>(sample, num_rows, r));
      if (transitions)
        for (std::uint32_t r : sp.rows)
          vc.add(code_word<kLimbs>(sample, num_rows, r + num_rows));
      for (unsigned b = 0; b < sample.active; ++b) {
        vc.lane_counts(b, hw.data());
        for (unsigned lane = 0; lane < 64; ++lane) ++h[2 * hw[lane]];
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
      std::uint64_t* const counts =
          ctx.tables[op.arg].data() + static_cast<std::size_t>(sample.group);
      const Word* const lvl = levels.data() + (cnt - 1);
      if (full) {
        for (std::size_t key = 0; key < cnt; ++key)
          counts[2 * key] += static_cast<std::uint64_t>(lvl[key].popcount());
      } else {
        for (std::size_t key = 0; key < cnt; ++key)
          counts[2 * key] +=
              static_cast<std::uint64_t>(lvl[key].popcount(sample.active));
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
    std::uint64_t* const counts = ctx.tables[l].data();
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
        counts[2 * key + static_cast<std::size_t>(sample.group)] += cnt;
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
      std::uint64_t* const counts = ctx.tables[l].data();
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
            ++counts[2 * key + group];
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
  if (!prog.ttest.empty()) {
    const auto t0 = Clock::now();
    accumulate_ttest<kLimbs>(plan, prog, buf, transitions, ctx);
    debug_charge(g_acc_path_nanos.ttest, t0, Clock::now());
  }
  if (!prog.trie.empty()) {
    const auto t0 = Clock::now();
    accumulate_narrow<kLimbs>(plan, prog, buf, ctx);
    const auto t1 = Clock::now();
    ctx.sub.histogram += seconds_between(t0, t1);
    debug_charge(g_acc_path_nanos.narrow, t0, t1);
  }
  if (!prog.compacted.empty()) {
    const auto t0 = Clock::now();
    accumulate_compacted<kLimbs>(plan, prog, buf, transitions, ctx);
    const auto t1 = Clock::now();
    ctx.sub.histogram += seconds_between(t0, t1);
    debug_charge(g_acc_path_nanos.compacted, t0, t1);
  }
  if (!prog.packed.empty()) {
    const auto t0 = Clock::now();
    accumulate_packed<kLimbs>(plan, prog, buf, ctx);
    debug_charge(g_acc_path_nanos.packed, t0, Clock::now());
  }
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
// at least its master and one worker table over the whole key space.
constexpr std::size_t kBytesPerBin = 64;

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
        bytes = std::max<std::size_t>(bytes,
                                      std::size_t{32} << set.observation_bits);
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
// resuming across them is sound); the batch grid covers the one way
// threads could matter, since the memory budget splits per worker. The
// accumulation plan (hosting, sharding, CSE structure) is excluded too: it
// is a pure function of the prepared sets and the options, snapshots carry
// fully materialized per-set tables, and hosted masters recompute their
// marginal from scratch after every stage — so a snapshot resumes under
// any plan layout, and with it any thread count (asserted by tests).
std::uint64_t campaign_fingerprint(const CampaignOptions& options,
                                   const detail::InputFeeder& feeder,
                                   const ChunkGrid& grid,
                                   const std::vector<BatchRange>& batches,
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
  for (const auto& [bb, be] : batches)
    fp.feed(static_cast<std::uint64_t>(bb)).feed(static_cast<std::uint64_t>(be));
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
// pool as (chunk x shard) cells. Each worker accumulates every cell it
// runs into its own tables and adds them to the masters once, when it
// drains. Integer adds commute, so neither the cell order nor the worker
// count can change a count, and the concatenation of stage passes stays
// bit-identical to one full pass. Hosted sets get no accumulator at all —
// their counts are marginalized from their host after the stage.
void run_stage(const StageContext& cx, const Batch& batch,
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
      (chunk_end - chunk_begin) * shards, cx.threads,
      [&] {
        WorkerCtx ctx(cx.schedule);
        ctx.tables.resize(masters.size());
        for (std::size_t l = 0; l < masters.size(); ++l)
          if (live(l))
            ctx.tables[l] = stats::FlatCountTable(masters[l].key_bits());
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
          if (live(l)) masters[l].merge(ctx.tables[l]);
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

// Finalizes a batch's sets from their master tables — under early
// stopping, from their partial counts — and releases the tables.
void finalize_batch(detail::PreparedSets& prepared, const Batch& batch,
                    bool ttest, double threshold, CampaignSnapshot& state,
                    Verdict& finished) {
  for (std::size_t l = 0; l < state.sets.size(); ++l) {
    PreparedSet& p = prepared.sets[batch.range.first + l];
    ProbeSetResult r;
    r.name = std::move(p.name);
    r.representatives = std::move(p.representatives);
    r.observation_bits = p.observation_bits;
    r.compacted = p.compacted;
    r.aliases = std::move(p.aliases);
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
                    bool ttest) {
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
  // Only a mid-batch snapshot carries tables (its batch's, in order).
  const bool mid_batch = !snap.complete && snap.stages_done > 0;
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
  // Each worker holds its own tables next to the masters, so the per-batch
  // share of the table budget shrinks with the thread count.
  const std::vector<BatchRange> batches = plan_batches(
      prepared.sets, 2 * grid.runs_per_group * grid.observations_per_run,
      std::max<std::size_t>(
          options.table_memory_budget / (std::size_t{threads} + 1),
          kBytesPerBin));
  const std::uint64_t fingerprint =
      campaign_fingerprint(options, feeder, grid, batches, prepared.sets);

  // The campaign's checkpointable state: the (batch, stage) cursor, the
  // running totals, the finalized results, and the in-progress batch's
  // master tables. Resume continues from a matching snapshot's state.
  CampaignSnapshot state;
  bool resumed = false;
  if (options.resume && !options.checkpoint_path.empty() &&
      std::ifstream(options.checkpoint_path, std::ios::binary).good()) {
    state = load_checkpoint(options.checkpoint_path);
    check_snapshot(state, fingerprint, grid, batches, prepared, transitions,
                   ttest);
    resumed = true;
  }
  state.fingerprint = fingerprint;
  state.num_chunks = grid.num_chunks;
  state.batches_total = batches.size();
  Verdict finished;  // over state.finished
  for (const ProbeSetResult& r : state.finished)
    finished.add(r.name, r.severity, threshold);
  state.finished.reserve(prepared.sets.size());

  const bool early_stop_enabled = options.early_stop_stages > 0;
  // Interim statistics cost a g_test per set per stage; skip them when
  // nobody observes them (no stage callback, no early stopping).
  const bool want_interim = early_stop_enabled || bool(options.on_stage);
  const bool checkpointing = !options.checkpoint_path.empty();
  SubPhaseSeconds sub;
  const auto emit = [&](std::size_t batch, std::size_t stage,
                        const Verdict& verdict, double stage_secs) {
    if (!options.on_stage) return;
    StageReport rep = stage_report(grid, stage, verdict, stage_secs, state, sub);
    rep.batch = batch + 1;
    rep.batches_total = batches.size();
    rep.aliased_probe_sets = prepared.aliases;
    if (checkpointing) rep.checkpoint_path = options.checkpoint_path;
    options.on_stage(rep);
  };

  const StageContext cx{options, feeder, schedule, grid, threads, transitions};
  std::size_t stages_completed =
      state.batch_index * grid.stages() + state.stages_done;
  unsigned stages_run_here = 0;
  bool interrupted = false;
  std::size_t hosted_total = 0;
  std::size_t max_set_shards = 1;
  while (state.batch_index < batches.size() && !state.complete &&
         !interrupted && !state.early_stopped) {
    const std::size_t b = state.batch_index;
    const BatchRange range = batches[b];
    const Batch batch =
        compile_batch(prepared, range, transitions, ttest, shard_target);
    hosted_total += batch.plan.hosted_sets;
    max_set_shards = std::max(max_set_shards, batch.plan.shards.size());
    // A batch's master tables exist only while it runs; a snapshot taken
    // mid-batch has restored them already.
    if (state.stages_done == 0)
      for (std::size_t si = range.first; si < range.second; ++si)
        state.sets.emplace_back(
            detail::table_key_bits(prepared.sets[si], transitions, ttest));

    double stage_secs = 0.0;
    while (true) {
      const std::size_t s = state.stages_done;
      const auto stage_start = Clock::now();
      run_stage(cx, batch, grid.stage_bounds[s], grid.stage_bounds[s + 1],
                state, sub);
      materialize_hosted(batch, state);
      stage_secs = seconds_between(stage_start, Clock::now());
      ++state.stages_done;
      ++stages_completed;
      ++stages_run_here;

      // Interim verdict-so-far over the batch's master tables, on top of
      // the finalized-batch baseline.
      Verdict so_far = finished;
      if (want_interim) {
        for (std::size_t l = 0; l < state.sets.size(); ++l)
          so_far.add(prepared.sets[range.first + l].name,
                     severity_of(state.sets[l], ttest), threshold);
        if (early_stop_enabled) {
          const bool over = so_far.max > threshold + options.early_stop_margin;
          state.streak = over ? state.streak + 1 : 0;
          if (state.streak >= options.early_stop_stages)
            state.early_stopped = true;
        }
      }
      // Batch (or campaign) done: finalize below, then snapshot/report
      // with exact statistics.
      if (state.stages_done == grid.stages() || state.early_stopped) break;
      if (checkpointing) save_checkpoint(options.checkpoint_path, state);
      emit(b, state.stages_done, so_far, stage_secs);
      if (options.stop_after_stage &&
          stages_run_here >= options.stop_after_stage) {
        // Simulated kill: leave the snapshot on disk, return a partial
        // result flagged `interrupted`.
        interrupted = true;
        break;
      }
    }
    if (interrupted) break;

    finalize_batch(prepared, batch, ttest, threshold, state, finished);
    const std::size_t final_stage = state.stages_done;
    state.batch_index = b + 1;
    state.stages_done = 0;
    state.complete = state.early_stopped || b + 1 == batches.size();
    if (checkpointing) save_checkpoint(options.checkpoint_path, state);
    emit(b, final_stage, finished, stage_secs);
    if (!state.complete && options.stop_after_stage &&
        stages_run_here >= options.stop_after_stage)
      interrupted = true;
  }

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
  result.table_batches = state.batch_index;
  result.simulate_seconds = state.simulate_seconds;
  result.accumulate_seconds = state.accumulate_seconds;
  result.merge_seconds = state.merge_seconds;
  result.extract_seconds = sub.extract;
  result.transpose_seconds = sub.transpose;
  result.histogram_seconds = sub.histogram;
  result.aliased_probe_sets = prepared.aliases;
  result.hosted_sets = hosted_total;
  result.set_shards = max_set_shards;
  result.stages_total = grid.stages();
  result.stages_completed = stages_completed;
  result.early_stopped = state.early_stopped;
  result.interrupted = interrupted;
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
  report_acc_debug();
  return result;
}

}  // namespace sca::eval
