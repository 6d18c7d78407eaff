// Repository benchmark program: one workload per process, closed loop (one
// engine call in flight), verdicts checked against the paper goldens.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//
// --trace 0 measures the end-to-end metrics: set-up repeated and its median
// taken, then timed iterations for S seconds (at least one), reporting the
// median. --trace 1 runs the same untraced iterations, then one traced
// iteration plus the per-layer replays, writes the spans as Chrome
// trace-event JSON under .perfbench_out/, and reports the per-layer metrics.
//
// Every stdout line is one JSON object (service::Json); the last one is the
// result {"correct", "attempted", "failed", "metrics"}. A readable summary
// goes to stderr.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/trace.hpp"
#include "perfbench/workloads.hpp"
#include "src/common/simd.hpp"
#include "src/service/json.hpp"

using sca::service::Json;
using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json (the self-test
// checks it).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"work_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gadgets.build_s", "s"},
    {"netlist.support_s", "s"},
    {"netlist.slice_s", "s"},
    {"netlist.cut_registers", "count"},
    {"netlist.snl_write_s", "s"},
    {"netlist.snl_read_s", "s"},
    {"probes.universe_s", "s"},
    {"probes.universe_size", "count"},
    {"probes.sets", "count"},
    {"probes.dedup_s", "s"},
    {"sim.compile_s", "s"},
    {"sim.tape_ops", "count"},
    {"campaign.simulate_cpu_s", "s"},
    {"campaign.accumulate_cpu_s", "s"},
    {"campaign.extract_cpu_s", "s"},
    {"campaign.transpose_cpu_s", "s"},
    {"campaign.histogram_cpu_s", "s"},
    {"campaign.merge_cpu_s", "s"},
    {"campaign.serial_s", "s"},
    {"campaign.batches", "count"},
    {"campaign.resim_ratio", "ratio"},
    {"campaign.scaling", "ratio"},
    {"accplan.sets", "count"},
    {"accplan.hosted", "count"},
    {"accplan.aliased", "count"},
    {"accplan.shards", "count"},
    {"lint.run_s", "s"},
    {"lint.probes", "count"},
    {"lint.cuts_per_probe", "ratio"},
    {"lint.findings", "count"},
    {"lint.certify_s", "s"},
    {"verif.exact_s", "s"},
    {"verif.probes", "count"},
    {"verif.skipped", "count"},
    {"search.exact_pass_s", "s"},
    {"search.prefilter_pass_s", "s"},
    {"search.reject_ratio", "ratio"},
    {"search.expensive", "count"},
    {"service.start_s", "s"},
    {"service.ack_s", "s"},
    {"service.tickets", "count"},
    {"service.per_ticket_s", "s"},
    {"service.overhead_s", "s"},
    {"service.cache_hits", "count"},
    {"service.cache_hit_s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.load_s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"trace.overhead_s", "s"},
};

constexpr const char* kOutDir = ".perfbench_out";

// Each set-up window repeats set-up at least kMinSetups times and until
// kSetupWindowSeconds have gone (cheap set-ups take well under 1 ms).
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1000;
constexpr double kSetupWindowSeconds = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny]\n"
               "workloads:",
               why.c_str());
  for (const char* name : kWorkloadNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && a.seconds >= 0.0;
    } else if (flag == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed needs a whole number");
  if (!have_seconds) usage("--seconds needs a number >= 0");
  if (a.trace < 0) usage("--trace needs 0 or 1");
  return a;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Usable cores: CPUs in this process's affinity mask, counting SMT
/// siblings of one physical core once. Falls back to the affinity count
/// when the topology is not readable.
unsigned usable_cores(unsigned* affinity_cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned logical = 0;
  std::set<std::pair<std::string, std::string>> cores;
  bool topology = true;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      ++logical;
      const std::string dir =
          "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
      const std::string package = read_line(dir + "physical_package_id");
      const std::string core = read_line(dir + "core_id");
      if (package.empty() || core.empty()) topology = false;
      cores.emplace(package, core);
    }
  }
  if (logical == 0) logical = std::max(1u, std::thread::hardware_concurrency());
  *affinity_cpus = logical;
  return topology && !cores.empty() ? static_cast<unsigned>(cores.size())
                                    : logical;
}

double peak_rss_mib() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB; children contributes its largest waited-for
  // descendant (the evald daemon or its worker).
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void emit(const Json& line) { std::printf("%s\n", line.dump().c_str()); }

Json metric_row(const std::string& workload, const std::string& name,
                double value, const std::string& unit) {
  Json row = Json::object();
  row.set("type", "metric");
  row.set("workload", workload);
  row.set("name", name);
  row.set("value", value);
  row.set("unit", unit);
  return row;
}

int run(const Args& args) {
  unsigned affinity_cpus = 0;
  const unsigned usable = usable_cores(&affinity_cpus);
  const unsigned threads = usable;

  Tracer tracer(args.workload + "-seed" + std::to_string(args.seed) + "-pid" +
                std::to_string(::getpid()));
  Goldens goldens;
  Context ctx;
  ctx.seed = args.seed;
  ctx.threads = threads;
  ctx.tiny = args.tiny;
  ctx.out_dir = kOutDir;
  ctx.tracer = &tracer;
  ctx.goldens = &goldens;
  std::unique_ptr<Workload> w = make_workload(args.workload, ctx);
  if (!w) usage("unknown workload " + args.workload);
  std::filesystem::create_directories(kOutDir);

  const bool valid = threads * w->workers() <= usable;
  Json stamp = Json::object();
  stamp.set("type", "stamp");
  stamp.set("workload", args.workload);
  stamp.set("seed", args.seed);
  stamp.set("trace", args.trace);
  stamp.set("tiny", args.tiny);
  stamp.set("affinity_cpus", affinity_cpus);
  stamp.set("usable_cores", usable);
  stamp.set("threads", threads);
  stamp.set("workers", w->workers());
  stamp.set("lanes", sca::common::resolve_lanes(0));
  stamp.set("compiler", "gcc " __VERSION__);
  stamp.set("march", PERFBENCH_MARCH);
  stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  stamp.set("valid", valid);
  emit(stamp);
  if (!valid)
    std::fprintf(stderr, "perfbench: invalid run: %u threads x %u workers > %u "
                 "usable cores\n", threads, w->workers(), usable);

  // --- set-up, repeated in a window before and one after the measured
  // iterations. setup_s is the median of the two window medians, i.e. their
  // mean: a sub-millisecond set-up runs at whatever speed the host gives the
  // process at that moment, and the two windows are seconds apart. ---------
  std::vector<double> window_medians, build_s;
  const auto setup_window = [&] {
    std::vector<double> times;
    const Clock::time_point start = Clock::now();
    for (int reps = 0;
         reps < kMinSetups ||
         (seconds_between(start, Clock::now()) < kSetupWindowSeconds &&
          reps < kMaxSetups);
         ++reps) {
      const Clock::time_point t0 = Clock::now();
      build_s.push_back(w->setup());
      times.push_back(seconds_between(t0, Clock::now()));
    }
    window_medians.push_back(median(times));
  };
  setup_window();

  // --- measured iterations, untraced ---------------------------------------
  std::vector<double> walls;
  double work = 0.0;
  const Clock::time_point loop_start = Clock::now();
  do {
    const Iteration it = w->run();
    walls.push_back(it.wall_s);
    work = it.work;
    Json row = Json::object();
    row.set("type", "iteration");
    row.set("workload", args.workload);
    row.set("index", walls.size() - 1);
    row.set("wall_s", it.wall_s);
    row.set("work", it.work);
    emit(row);
  } while (seconds_between(loop_start, Clock::now()) < args.seconds);
  setup_window();
  w->finish();
  const double wall_s = median(walls);

  // --- traced iteration and layer replays ----------------------------------
  Layers layers;
  std::string trace_path;
  if (args.trace == 1) {
    tracer.set_enabled(true);
    double traced_wall = 0.0;
    {
      Span root(tracer, "perfbench/" + args.workload);
      {
        Span it(tracer, "perfbench/traced_iteration");
        traced_wall = w->run().wall_s;
      }
      Span replays(tracer, "perfbench/replays");
      w->replay(layers);
    }
    tracer.set_enabled(false);
    layers["gadgets.build_s"] = median(build_s);
    layers["trace.overhead_s"] = traced_wall - wall_s;
    trace_path = std::string(kOutDir) + "/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".trace.json";
    std::ofstream(trace_path) << tracer.chrome_trace().dump() << "\n";
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const SpanRecord& s = tracer.spans()[i];
      Json row = Json::object();
      row.set("type", "span");
      row.set("run_id", tracer.run_id());
      row.set("name", s.name);
      row.set("parent", s.parent < 0 ? std::string()
                                     : tracer.spans()[s.parent].name);
      row.set("start_s", s.start);
      row.set("dur_s", s.end - s.start);
      row.set("self_s", tracer.self_time(i));
      emit(row);
    }
  }

  // --- report ---------------------------------------------------------------
  Json metrics = Json::object();
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    emit(metric_row(args.workload, name, value, unit));
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  };
  const double throughput = wall_s > 0.0 ? work / wall_s : 0.0;
  if (args.trace == 0) {
    for (const MetricDef& d : kEndToEnd) {
      const std::string name = d.name;
      add(name,
          name == "wall_s"         ? wall_s
          : name == "setup_s"      ? median(window_medians)
          : name == "work_per_s"   ? throughput
                                   : peak_rss_mib(),
          d.unit);
    }
  } else {
    for (const MetricDef& d : kPerLayer) {
      const auto it = layers.find(d.name);
      add(d.name, it == layers.end() ? 0.0 : it->second, d.unit);
    }
  }
  // Rows under the names the workload definitions use; not part of the
  // result's metric set.
  const std::string unit = w->work_unit();
  emit(metric_row(args.workload, unit + "_per_s", throughput, unit + "/s"));
  emit(metric_row(args.workload, "verdict_errors",
                  static_cast<double>(goldens.errors()), "count"));

  Json golden_row = Json::object();
  golden_row.set("type", "goldens");
  golden_row.set("workload", args.workload);
  golden_row.set("checked", goldens.checked());
  golden_row.set("errors", goldens.errors());
  golden_row.set("mismatches", goldens.mismatches());
  golden_row.set("digests", goldens.digests());
  emit(golden_row);

  std::fprintf(stderr,
               "perfbench %s seed=%llu threads=%u: %zu iteration(s), "
               "wall_s median %.4f, setup_s median %.6f, %s/s %.4g, "
               "goldens %zu checked / %zu errors%s%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               threads, walls.size(), wall_s, median(window_medians),
               unit.c_str(), throughput, goldens.checked(),
               goldens.errors(), trace_path.empty() ? "" : ", trace ",
               trace_path.c_str());

  Json result = Json::object();
  result.set("correct", valid && goldens.errors() == 0);
  result.set("attempted", goldens.checked());
  result.set("failed", goldens.errors());
  result.set("metrics", std::move(metrics));
  emit(result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
