// Performance benchmarks: a scaling trajectory for the parallel campaign
// engine (run with no arguments; emits BENCH_perf.json) plus
// google-benchmark microbenches over the cost centers — field arithmetic,
// netlist construction and analysis, bit-parallel simulation, statistics,
// and end-to-end campaign throughput (run with any google-benchmark
// argument, e.g. `bench_perf --benchmark_filter=all`).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench/bench_util.hpp"
#include "src/aes/aes128.hpp"
#include "src/common/rng.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/gf/gf256.hpp"
#include "src/gf/tower.hpp"
#include "src/netlist/cone.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/verif/exact.hpp"

namespace {

using namespace sca;

void BM_Gf256Mul(benchmark::State& state) {
  common::Xoshiro256 rng(1);
  std::uint8_t a = rng.byte(), b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::gf256_mul(a, b));
    a += 1;
    b += 3;
  }
}
BENCHMARK(BM_Gf256Mul);

void BM_Gf256Inv(benchmark::State& state) {
  std::uint8_t a = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::gf256_inv(a));
    ++a;
  }
}
BENCHMARK(BM_Gf256Inv);

void BM_TowerInv(benchmark::State& state) {
  std::uint8_t a = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::tower_inv(a));
    ++a;
  }
}
BENCHMARK(BM_TowerInv);

void BM_AesEncryptBlock(benchmark::State& state) {
  aes::Block pt{};
  aes::Key128 key{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::encrypt(pt, key));
    pt[0] += 1;
  }
}
BENCHMARK(BM_AesEncryptBlock);

netlist::Netlist build_sbox_netlist() {
  netlist::Netlist nl;
  gadgets::MaskedSboxOptions options;
  options.kron_plan = gadgets::RandomnessPlan::kron1_full_fresh();
  gadgets::build_masked_sbox(nl, options);
  return nl;
}

void BM_BuildMaskedSbox(benchmark::State& state) {
  for (auto _ : state) {
    netlist::Netlist nl = build_sbox_netlist();
    benchmark::DoNotOptimize(nl.size());
  }
}
BENCHMARK(BM_BuildMaskedSbox);

void BM_StableSupportAnalysis(benchmark::State& state) {
  const netlist::Netlist nl = build_sbox_netlist();
  for (auto _ : state) {
    netlist::StableSupport supports(nl);
    benchmark::DoNotOptimize(supports.stable_points().size());
  }
}
BENCHMARK(BM_StableSupportAnalysis);

void BM_SimulatorCycle(benchmark::State& state) {
  const netlist::Netlist nl = build_sbox_netlist();
  sim::Simulator simulator(nl);
  common::Xoshiro256 rng(1);
  for (const auto& in : nl.inputs()) simulator.set_input(in.signal, rng.next());
  for (auto _ : state) {
    simulator.step();
    benchmark::DoNotOptimize(simulator.value(0));
  }
  // 64 parallel simulations advance per cycle.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SimulatorCycle);

void BM_ContingencyAdd(benchmark::State& state) {
  stats::FlatCountTable table(12);
  common::Xoshiro256 rng(1);
  int group = 0;
  for (auto _ : state) {
    table.add(rng.next() & 0xFFF, group);
    group ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContingencyAdd);

void BM_GTest4096Bins(benchmark::State& state) {
  stats::FlatCountTable table(12);
  common::Xoshiro256 rng(1);
  for (int i = 0; i < 1000000; ++i) table.add(rng.next() & 0xFFF, i & 1);
  for (auto _ : state) benchmark::DoNotOptimize(table.g_test().minus_log10_p);
}
BENCHMARK(BM_GTest4096Bins);

void BM_ExactVerifyKronecker(benchmark::State& state) {
  netlist::Netlist nl;
  std::vector<gadgets::Bus> shares = {
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares,
                           gadgets::RandomnessPlan::kron1_demeyer_eq6());
  for (auto _ : state) {
    const verif::ExactReport report = verif::verify_first_order_glitch(nl);
    benchmark::DoNotOptimize(report.any_leak);
  }
}
BENCHMARK(BM_ExactVerifyKronecker);

void BM_CampaignKronecker10k(benchmark::State& state) {
  netlist::Netlist nl;
  std::vector<gadgets::Bus> shares = {
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, netlist::InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares,
                           gadgets::RandomnessPlan::kron1_full_fresh());
  eval::CampaignOptions options;
  options.simulations = 10000;
  options.fixed_values[0] = 0;
  for (auto _ : state) {
    const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
    benchmark::DoNotOptimize(result.max_minus_log10_p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_CampaignKronecker10k);

// How many threads this machine can actually scale to. hardware_concurrency
// reports *logical* CPUs — on an SMT machine that is twice the real cores,
// and inside a container it ignores the cgroup/affinity mask entirely, so
// trajectory points above the true capacity measure oversubscription and
// used to be reported as "negative scaling". Usable cores = the scheduling
// affinity mask (what the container may run on), capped by the physical
// core count parsed from /proc/cpuinfo (unique (physical id, core id)
// pairs) when that is available and smaller.
unsigned detect_usable_cores() {
  unsigned usable = std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) usable = static_cast<unsigned>(n);
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  if (cpuinfo.good()) {
    std::set<std::pair<int, int>> cores;
    int physical_id = -1;
    std::string line;
    while (std::getline(cpuinfo, line)) {
      const auto colon = line.find(':');
      const std::string key = line.substr(0, line.find('\t'));
      if (colon == std::string::npos) continue;
      const int value = std::atoi(line.c_str() + colon + 1);
      if (key == "physical id") physical_id = value;
      if (key == "core id") cores.emplace(physical_id, value);
    }
    if (!cores.empty())
      usable = std::min(usable, static_cast<unsigned>(cores.size()));
  }
#endif
  return std::max(1u, usable);
}

// One timed E2-style campaign (masked Sbox + Eq.(6) Kronecker — the
// paper's Figure 3 workload) at a given thread count.
struct PerfPoint {
  unsigned threads = 1;
  unsigned lanes = 64;
  // True when the point ran more threads than the machine has usable
  // cores — it measures scheduler churn, not scaling, and is excluded
  // from the headline speedup.
  bool oversubscribed = false;
  double seconds = 0.0;
  double sims_per_sec = 0.0;
  double gate_evals_per_sec = 0.0;
  double speedup = 1.0;
  double max_minus_log10_p = 0.0;
  // Per-phase CPU seconds summed over workers (see CampaignResult).
  double simulate_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double merge_seconds = 0.0;
  // Accumulation sub-phases of the fused pipeline (subset of
  // accumulate_seconds): block gathering, 64x64 transposes, and
  // histogram/table updates.
  double extract_seconds = 0.0;
  double transpose_seconds = 0.0;
  double histogram_seconds = 0.0;
  // Compiled-plan structure counters (see CampaignResult).
  std::size_t aliased_probe_sets = 0;
  std::size_t hosted_sets = 0;
  // Wall seconds per evaluation stage (only populated when SCA_STAGES > 1
  // splits the campaign; an unstaged run leaves this empty).
  std::vector<double> stage_seconds;
};

PerfPoint run_e2_point(const netlist::Netlist& nl,
                       const gadgets::MaskedSbox& sbox, std::size_t sims,
                       std::size_t comb_gates, unsigned threads) {
  eval::CampaignOptions options;
  options.model = eval::ProbeModel::kGlitch;
  options.simulations = sims;
  options.fixed_values[0] = 0x00;
  options.nonzero_random_buses = {sbox.rand_b2m};
  options.threads = threads;
  PerfPoint point;
  // Observe per-stage timings only when the user opted into staging:
  // attaching a stage observer makes the engine compute interim statistics
  // at every stage boundary, which would distort an unstaged measurement.
  unsigned env_stages = 0;
  if (const char* env = std::getenv("SCA_STAGES"))
    env_stages = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  if (env_stages > 1)
    options.on_stage = [&point](const eval::StageReport& report) {
      point.stage_seconds.push_back(report.stage_seconds);
    };
  const auto start = std::chrono::steady_clock::now();
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  point.threads = threads;
  point.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.lanes = result.lanes_used;
  point.sims_per_sec =
      2.0 * static_cast<double>(result.simulations_per_group) / point.seconds;
  point.gate_evals_per_sec = static_cast<double>(result.total_cycles) *
                             static_cast<double>(comb_gates) * 64.0 /
                             point.seconds;
  point.max_minus_log10_p = result.max_minus_log10_p;
  point.simulate_seconds = result.simulate_seconds;
  point.accumulate_seconds = result.accumulate_seconds;
  point.merge_seconds = result.merge_seconds;
  point.extract_seconds = result.extract_seconds;
  point.transpose_seconds = result.transpose_seconds;
  point.histogram_seconds = result.histogram_seconds;
  point.aliased_probe_sets = result.aliased_probe_sets;
  point.hosted_sets = result.hosted_sets;
  return point;
}

// How the fused pipeline scales with the probe-set count: the same E2
// workload capped at 1/8/64/512 probe sets, single-threaded. The compiled
// plan's hosting and cross-set sharing make throughput degrade far slower
// than linearly in the set count; this sweep records the curve.
struct SweepPoint {
  std::size_t max_sets = 0;
  std::size_t total_sets = 0;
  std::size_t hosted_sets = 0;
  double seconds = 0.0;
  double sims_per_sec = 0.0;
};

std::vector<SweepPoint> run_probe_set_sweep(const netlist::Netlist& nl,
                                            const gadgets::MaskedSbox& sbox,
                                            std::size_t sims) {
  std::vector<SweepPoint> sweep;
  std::printf("\n  probe-set scaling (1 thread):  sets  hosted   seconds"
              "     sims/sec\n");
  for (std::size_t cap : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                          std::size_t{512}}) {
    eval::CampaignOptions options;
    options.model = eval::ProbeModel::kGlitch;
    options.simulations = sims;
    options.fixed_values[0] = 0x00;
    options.nonzero_random_buses = {sbox.rand_b2m};
    options.threads = 1;
    options.max_probe_sets = cap;
    const auto start = std::chrono::steady_clock::now();
    const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
    SweepPoint p;
    p.max_sets = cap;
    p.total_sets = result.total_sets;
    p.hosted_sets = result.hosted_sets;
    p.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    p.sims_per_sec =
        2.0 * static_cast<double>(result.simulations_per_group) / p.seconds;
    std::printf("  %28zu  %6zu  %8.2f  %11.0f\n", p.total_sets, p.hosted_sets,
                p.seconds, p.sims_per_sec);
    sweep.push_back(p);
  }
  return sweep;
}

// The scaling trajectory: the E2 campaign at 1..8 threads, cross-checked
// for bit-identical statistics, written to BENCH_perf.json.
int run_perf_trajectory() {
  // Large enough that a trajectory point runs for seconds, not tens of
  // milliseconds, AND that the chunk grid reaches full wide execution
  // blocks: below 256 runs per group the engine keeps the fine seed-era
  // chunk grid (1 run per chunk), which caps the kernel at one active
  // limb. 2^20 sims is ~512 runs/group — 8-run chunks, full 512-lane
  // blocks — and runs in about a second per point.
  const std::size_t sims = benchutil::simulations(1u << 20);
  netlist::Netlist nl;
  gadgets::MaskedSboxOptions sbox_options;
  sbox_options.kron_plan = gadgets::RandomnessPlan::kron1_demeyer_eq6();
  const gadgets::MaskedSbox sbox = gadgets::build_masked_sbox(nl, sbox_options);
  const std::size_t comb_gates = sim::Schedule(nl).comb_gates();

  std::printf("perf trajectory: E2 campaign (masked Sbox + Eq.(6)), %zu sims"
              " (SCA_SIMS scales), %zu gates (%zu comb)\n\n",
              sims, nl.size(), comb_gates);
  std::printf("  threads   seconds     sims/sec    gate-evals/sec   speedup"
              "      sim%%    acc%%  merge%%\n");

  // Sweep only thread counts the machine can actually schedule: points
  // beyond the usable core count measure oversubscription, not scaling
  // (this container has 1 usable core — the 2/4/8-thread points were
  // noise). SCA_PERF_ALL_THREADS=1 restores the full sweep; the extra
  // points are then tagged "oversubscribed" in the JSON and never feed
  // the headline speedup.
  const unsigned cores = detect_usable_cores();
  bool full_sweep = false;
  if (const char* env = std::getenv("SCA_PERF_ALL_THREADS"))
    full_sweep = std::strtoul(env, nullptr, 10) != 0;
  std::vector<unsigned> thread_counts;
  for (unsigned threads : {1u, 2u, 4u, 8u})
    if (full_sweep || threads <= cores) thread_counts.push_back(threads);
  if (thread_counts.size() < 4)
    std::printf("  (skipping thread counts above %u usable core%s — set "
                "SCA_PERF_ALL_THREADS=1 for the full sweep)\n",
                cores, cores == 1 ? "" : "s");

  std::vector<PerfPoint> points;
  bool deterministic = true;
  for (unsigned threads : thread_counts) {
    PerfPoint p = run_e2_point(nl, sbox, sims, comb_gates, threads);
    p.oversubscribed = threads > cores;
    if (!points.empty()) {
      p.speedup = p.sims_per_sec / points.front().sims_per_sec;
      deterministic &=
          p.max_minus_log10_p == points.front().max_minus_log10_p;
    }
    const double phase_total =
        p.simulate_seconds + p.accumulate_seconds + p.merge_seconds;
    const double denom = phase_total > 0.0 ? phase_total : 1.0;
    std::printf("  %7u  %8.2f  %11.0f  %15.3g  %7.2fx   %5.1f   %5.1f   %5.1f%s\n",
                p.threads, p.seconds, p.sims_per_sec, p.gate_evals_per_sec,
                p.speedup, 100.0 * p.simulate_seconds / denom,
                100.0 * p.accumulate_seconds / denom,
                100.0 * p.merge_seconds / denom,
                p.oversubscribed ? "   (oversubscribed)" : "");
    points.push_back(p);
  }
  std::printf("\n  statistics bit-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — BUG");

  const std::vector<SweepPoint> sweep = run_probe_set_sweep(nl, sbox, sims);

  // Best non-oversubscribed point: rows beyond the usable core count are
  // recorded for inspection but never drive the headline numbers.
  const PerfPoint* best_p = &points.front();
  for (const PerfPoint& p : points)
    if (!p.oversubscribed && p.sims_per_sec > best_p->sims_per_sec)
      best_p = &p;
  const PerfPoint& best = *best_p;
  std::ostringstream json;
  json << "{\n  \"bench\": \"perf\",\n";
  json << "  \"workload\": \"e2_sbox_eq6\",\n";
  json << "  \"sims\": " << sims << ",\n";
  json << "  \"gates\": " << nl.size() << ",\n";
  json << "  \"comb_gates\": " << comb_gates << ",\n";
  // The container's true scheduling capacity (affinity mask capped by
  // physical cores); speedup beyond it is oversubscription (historically
  // reported as "negative scaling" — hardware_concurrency counts logical
  // CPUs and ignores the container's affinity mask).
  json << "  \"usable_cores\": " << cores << ",\n";
  json << "  \"logical_cpus\": " << std::thread::hardware_concurrency()
       << ",\n";
  json << "  \"lanes\": " << points.front().lanes << ",\n";
  json << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PerfPoint& p = points[i];
    json << "    {\"threads\": " << p.threads
         << ", \"lanes\": " << p.lanes
         << ", \"oversubscribed\": " << (p.oversubscribed ? "true" : "false")
         << ", \"seconds\": " << p.seconds
         << ", \"sims_per_sec\": " << p.sims_per_sec
         << ", \"gate_evals_per_sec\": " << p.gate_evals_per_sec
         << ", \"speedup\": " << p.speedup
         << ", \"simulate_seconds\": " << p.simulate_seconds
         << ", \"accumulate_seconds\": " << p.accumulate_seconds
         << ", \"merge_seconds\": " << p.merge_seconds
         << ", \"extract_seconds\": " << p.extract_seconds
         << ", \"transpose_seconds\": " << p.transpose_seconds
         << ", \"histogram_seconds\": " << p.histogram_seconds << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"aliased_probe_sets\": " << points.front().aliased_probe_sets
       << ",\n";
  json << "  \"hosted_sets\": " << points.front().hosted_sets << ",\n";
  json << "  \"probe_set_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json << "    {\"max_sets\": " << p.max_sets
         << ", \"sets\": " << p.total_sets
         << ", \"hosted_sets\": " << p.hosted_sets
         << ", \"seconds\": " << p.seconds
         << ", \"sims_per_sec\": " << p.sims_per_sec << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"single_thread_sims_per_sec\": " << points.front().sims_per_sec
       << ",\n";
  json << "  \"threads\": " << best.threads << ",\n";
  json << "  \"sims_per_sec\": " << best.sims_per_sec << ",\n";
  json << "  \"gate_evals_per_sec\": " << best.gate_evals_per_sec << ",\n";
  json << "  \"speedup\": " << best.speedup << "\n}\n";
  {
    std::ofstream out("BENCH_perf.json");
    out << json.str();
  }
  std::printf("  wrote BENCH_perf.json (%u threads: %.0f sims/sec, %.2fx)\n",
              best.threads, best.sims_per_sec, best.speedup);

  // The cross-commit trajectory file gets a flat one-line record too.
  benchutil::JsonLine line;
  line.add("bench", "perf");
  line.add("pass", deterministic);
  line.add("seconds", points.front().seconds);
  line.add("threads", best.threads);
  line.add("usable_cores", static_cast<std::size_t>(cores));
  line.add("lanes", static_cast<std::size_t>(points.front().lanes));
  line.add("sims_per_sec", best.sims_per_sec);
  line.add("single_thread_sims_per_sec", points.front().sims_per_sec);
  line.add("gate_evals_per_sec", best.gate_evals_per_sec);
  line.add("speedup", best.speedup);
  line.add("simulate_seconds", points.front().simulate_seconds);
  line.add("accumulate_seconds", points.front().accumulate_seconds);
  line.add("merge_seconds", points.front().merge_seconds);
  line.add("extract_seconds", points.front().extract_seconds);
  line.add("transpose_seconds", points.front().transpose_seconds);
  line.add("histogram_seconds", points.front().histogram_seconds);
  line.add("aliased_probe_sets", points.front().aliased_probe_sets);
  line.add("hosted_sets", points.front().hosted_sets);
  // Stage-timing fields (SCA_STAGES > 1): how evenly the staged engine
  // spreads the budget, trackable across commits like the phase timings.
  const std::vector<double>& stage_secs = points.front().stage_seconds;
  line.add("stages", stage_secs.empty() ? std::size_t{1} : stage_secs.size());
  if (!stage_secs.empty()) {
    double total = 0.0, worst = 0.0;
    for (double s : stage_secs) {
      total += s;
      worst = std::max(worst, s);
    }
    line.add("stage_seconds_mean",
             total / static_cast<double>(stage_secs.size()));
    line.add("stage_seconds_max", worst);
  }
  line.append_to(benchutil::bench_json_path());
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // No arguments: the scaling trajectory. Any argument: google-benchmark
  // microbenches (all their flags work, e.g. --benchmark_filter).
  if (argc <= 1) return run_perf_trajectory();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
