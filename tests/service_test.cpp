// Evaluation-service integration and unit tests (ctest label `service`).
//
// The contracts under test:
//   * Crash recovery: an E2 campaign submitted through a live evald daemon
//     with 4 forked workers, one of which is SIGKILLed mid-ticket after the
//     first stage (so recovery loads a snapshot carrying count tables),
//     produces a verdict byte-identical to the uninterrupted in-process
//     run, and the daemon reports the re-issued ticket and restarted worker.
//   * Verdict cache: an identical resubmission is served from the cache
//     with zero simulated work; flipping any verdict-relevant component of
//     the spec (a netlist byte, the randomness plan, the budget, the seed)
//     misses; the cache survives a daemon restart.
//   * Protocol robustness: malformed JSON, oversized frames, unknown
//     commands/kinds/jobs, and clients vanishing mid-watch leave the daemon
//     serving.
//   * JSON lines: every machine-readable line the tool emits (stage,
//     result, verdict, lint) parses on its own and self-identifies its
//     backend — the interleaving fix.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/common/check.hpp"
#include "src/core/campaign.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/ir.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/cache.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/job.hpp"
#include "src/service/json.hpp"
#include "src/service/worker.hpp"
#include "tests/test_util.hpp"

namespace sca::service {
namespace {

namespace fs = std::filesystem;
using gadgets::RandomnessPlan;
using testutil::kronecker_netlist;

// --- fixtures ---------------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      testing::TempDir() + "svc_" + tag + "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JobSpec kronecker_spec(const RandomnessPlan& plan, std::size_t sims) {
  JobSpec spec;
  spec.kind = JobKind::kCampaign;
  spec.netlist = netlist::write_snl(kronecker_netlist(plan));
  spec.simulations = sims;
  spec.fixed_values[0] = 0x00;
  return spec;
}

// The paper's E2 configuration: full masked Sbox with the Eq. (6)
// randomness optimization, fixed input 0x00, glitch model.
JobSpec e2_spec(std::size_t sims) {
  netlist::Netlist nl;
  gadgets::MaskedSboxOptions options;
  options.kron_plan = RandomnessPlan::kron1_demeyer_eq6();
  gadgets::build_masked_sbox(nl, options);
  JobSpec spec;
  spec.kind = JobKind::kCampaign;
  spec.netlist = netlist::write_snl(nl);
  spec.simulations = sims;
  spec.fixed_values[0] = 0x00;
  return spec;
}

/// Forks a daemon process for the lifetime of a test. The child never
/// returns into gtest: it runs the daemon loop and _exits.
class DaemonProcess {
 public:
  explicit DaemonProcess(DaemonOptions options) : options_(std::move(options)) {
    pid_ = ::fork();
    common::require(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      try {
        ::_exit(run_daemon(options_));
      } catch (...) {
        ::_exit(3);
      }
    }
  }

  ~DaemonProcess() { stop(); }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  const std::string& socket() const { return options_.socket_path; }

 private:
  DaemonOptions options_;
  pid_t pid_ = -1;
};

DaemonOptions daemon_options(const std::string& tag, unsigned workers,
                             bool with_cache = true) {
  DaemonOptions options;
  const std::string dir = fresh_dir(tag);
  options.socket_path = dir + "/evald.sock";
  options.work_dir = dir + "/work";
  if (with_cache) options.cache_dir = dir + "/cache";
  options.workers = workers;
  return options;
}

void sleep_ms(unsigned ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  ::nanosleep(&ts, nullptr);
}

/// Canonical wire form of the in-process reference verdict: the same
/// parse+dump canonicalization the daemon's verdict went through.
std::string reference_verdict(const JobSpec& spec) {
  const netlist::Netlist nl = netlist::parse_snl(spec.netlist);
  eval::CampaignOptions options = spec.campaign_options(nl);
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  return Json::parse(eval::verdict_json(result)).dump();
}

// --- JSON value / parser ----------------------------------------------------

TEST(Json, RoundTripsValuesAndPreservesKeyOrder) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", "text with \"quotes\" and \\ and \n");
  obj.set("flag", true);
  obj.set("nothing", nullptr);
  obj.set("big", std::uint64_t{1} << 62);
  obj.set("pi", 3.141592653589793);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(false);
  obj.set("arr", std::move(arr));
  const std::string wire = obj.dump();
  // Keys come back in insertion order, so dump is deterministic.
  EXPECT_LT(wire.find("\"z\""), wire.find("\"a\""));
  const Json back = Json::parse(wire);
  EXPECT_EQ(back.dump(), wire);
  EXPECT_EQ(back.at("z").as_int(), 1);
  EXPECT_EQ(back.at("a").as_string(), "text with \"quotes\" and \\ and \n");
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("nothing").is_null());
  EXPECT_EQ(back.at("big").as_uint(), std::uint64_t{1} << 62);
  EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(back.at("arr").items().size(), 3u);
}

TEST(Json, ParsesEscapesAndUnicode) {
  const Json v = Json::parse(R"("aA\n\té😀b")");
  EXPECT_EQ(v.as_string(), "aA\n\t\xc3\xa9\xf0\x9f\x98\x80" "b");
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",           "[1,]",         "{\"a\":}",
      "tru",        "01",          "1.2.3",        "\"unterminated",
      "\"bad\\q\"", "{\"a\":1} x", "[1] [2]",      "nul",
      "{'a':1}",    "\x01",        "{\"a\" 1}",    "[1 2]",
  };
  for (const char* text : bad)
    EXPECT_THROW(Json::parse(text), common::Error) << "input: " << text;
  // Literal control characters must be escaped inside strings.
  EXPECT_THROW(Json::parse(std::string("\"a\nb\"")), common::Error);
  // Nesting depth is capped.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(Json::parse(deep + "1" + std::string(100, ']')), common::Error);
}

// --- JobSpec wire format and cache key --------------------------------------

TEST(JobSpec, WireRoundTripPreservesCacheKey) {
  JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 12345);
  spec.model = eval::ProbeModel::kGlitchTransition;
  spec.order = 2;
  spec.statistic = eval::Statistic::kWelchTTest;
  spec.seed = 99;
  spec.threshold = 4.5;
  spec.scope = "kron.";
  spec.stages = 7;
  spec.threads = 3;
  spec.throttle_ms = 12;
  const JobSpec back = JobSpec::from_json(Json::parse(spec.to_json().dump()));
  EXPECT_EQ(back.cache_key(), spec.cache_key());
  EXPECT_EQ(back.netlist, spec.netlist);
  EXPECT_EQ(back.simulations, spec.simulations);
  EXPECT_EQ(back.stages, spec.stages);
  EXPECT_EQ(back.throttle_ms, spec.throttle_ms);
}

TEST(JobSpec, CacheKeyCoversVerdictRelevantComponentsOnly) {
  const JobSpec base = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 2000);
  const std::string key = base.cache_key();

  // Every verdict-relevant component flips the key.
  {
    JobSpec s = base;
    s.netlist[s.netlist.size() / 2] ^= 1;  // one netlist byte
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = kronecker_spec(RandomnessPlan::kron1_proposed_eq9(), 2000);
    EXPECT_NE(s.cache_key(), key);  // plan change rewires the netlist
  }
  {
    JobSpec s = base;
    s.model = eval::ProbeModel::kGlitchTransition;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.order = 2;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.statistic = eval::Statistic::kWelchTTest;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.simulations = 2001;  // budget
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.seed = 2;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.threshold = 5.0;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.fixed_values[0] = 0x42;
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.scope = "kron.G7";
    EXPECT_NE(s.cache_key(), key);
  }
  {
    JobSpec s = base;
    s.kind = JobKind::kLint;
    EXPECT_NE(s.cache_key(), key);
  }

  // Execution knobs are bit-identity-irrelevant by the campaign contract
  // and must NOT flip the key — that is what makes re-asking under
  // different staging hit the cache.
  {
    JobSpec s = base;
    s.stages = 32;
    s.threads = 8;
    s.throttle_ms = 1000;
    s.search_chunks_per_ticket = 5;
    EXPECT_EQ(s.cache_key(), key);
  }
}

// --- verdict cache ----------------------------------------------------------

TEST(VerdictCache, StoreLookupAndDefensiveMisses) {
  const std::string dir = fresh_dir("cache_unit");
  VerdictCache cache(dir + "/c");
  const std::string key = "00ff00ff00ff00ff";
  Json verdict = Json::object();
  verdict.set("pass", false);
  verdict.set("max", 13.5);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_TRUE(cache.store(key, verdict));
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->dump(), verdict.dump());
  EXPECT_EQ(cache.size(), 1u);

  // Malformed keys never touch the filesystem.
  EXPECT_FALSE(cache.lookup("../../etc/passwd").has_value());
  EXPECT_FALSE(cache.store("no", verdict));

  // Corrupted entry: a miss, never a crash.
  {
    std::FILE* f = std::fopen((cache.dir() + "/" + key + ".json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{ corrupted", f);
    std::fclose(f);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());

  // An entry written under a different engine version is never served.
  {
    Json entry = Json::object();
    entry.set("engine", "evald-0");
    entry.set("key", key);
    entry.set("verdict", verdict);
    std::FILE* f = std::fopen((cache.dir() + "/" + key + ".json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs((entry.dump() + "\n").c_str(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());

  // Disabled cache: lookups miss, stores drop.
  VerdictCache off("");
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.store(key, verdict));
  EXPECT_FALSE(off.lookup(key).has_value());
}

// --- self-identifying JSON lines (the --json interleaving fix) --------------

TEST(JsonLines, EveryEmittedLineParsesIndependentlyWithBackendTag) {
  const netlist::Netlist nl =
      kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  eval::CampaignOptions options;
  options.simulations = 4000;
  options.fixed_values[0] = 0x00;
  options.stages = 3;
  std::vector<std::string> lines;
  options.on_stage = [&](const eval::StageReport& r) {
    lines.push_back(eval::to_json(r));
  };
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  lines.push_back(eval::to_json(result));
  lines.push_back(eval::verdict_json(result));
  const lint::LintReport lint_report = lint::run_lint(nl, {});
  lines.push_back(eval::to_json(lint_report));

  ASSERT_GE(lines.size(), 5u);
  for (const std::string& line : lines) {
    SCOPED_TRACE(line.substr(0, 80));
    EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per object
    Json parsed;
    ASSERT_NO_THROW(parsed = Json::parse(line));
    EXPECT_FALSE(parsed.get_string("backend", "").empty());
  }
  // A downstream consumer can attribute interleaved lines by tagging them
  // with a job field — the evaltool --job path — without re-encoding.
  Json tagged = Json::parse(lines.front());
  tagged.set("job", "streamA");
  EXPECT_EQ(Json::parse(tagged.dump()).at("job").as_string(), "streamA");
}

TEST(JsonLines, VerdictJsonIsInvariantUnderExecutionKnobs) {
  const netlist::Netlist nl =
      kronecker_netlist(RandomnessPlan::kron1_demeyer_eq6());
  eval::CampaignOptions base;
  base.simulations = 4000;
  base.fixed_values[0] = 0x00;
  const std::string reference =
      eval::verdict_json(eval::run_fixed_vs_random(nl, base));

  eval::CampaignOptions staged = base;
  staged.stages = 4;
  EXPECT_EQ(eval::verdict_json(eval::run_fixed_vs_random(nl, staged)),
            reference);

  eval::CampaignOptions threaded = base;
  threaded.threads = 2;
  EXPECT_EQ(eval::verdict_json(eval::run_fixed_vs_random(nl, threaded)),
            reference);

  eval::CampaignOptions narrow = base;
  narrow.lanes = 64;
  EXPECT_EQ(eval::verdict_json(eval::run_fixed_vs_random(nl, narrow)),
            reference);
}

// --- the headline: crash-injection recovery ---------------------------------

// E2 through the service: 4 workers, a SIGKILL mid-ticket, and the verdict
// must come out byte-identical to the uninterrupted in-process run, with
// the re-issued ticket and the restarted worker visible in the counters.
TEST(Service, CrashedWorkerRecoversWithBitIdenticalVerdict) {
  JobSpec spec = e2_spec(20000);
  spec.stages = 10;       // ticket granularity: ten tickets for this job
  spec.throttle_ms = 250; // reliable mid-ticket SIGKILL window

  // Uninterrupted single-process reference (unstaged, no service, no
  // checkpointing) — computed before the daemon exists.
  JobSpec reference_spec = spec;
  reference_spec.stages = 0;
  reference_spec.throttle_ms = 0;
  const std::string expected = reference_verdict(reference_spec);

  DaemonOptions options = daemon_options("crash", 4);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);
  const Json ack = client.submit(spec);
  EXPECT_FALSE(ack.at("cached").as_bool());
  const std::string job = ack.at("job").as_string();

  // Wait until the job has completed a stage and a worker is busy on a
  // later ticket (it sleeps throttle_ms before doing any work, so this
  // window is wide), then SIGKILL it. The re-issued ticket then resumes
  // from a mid-batch snapshot that carries count tables.
  const std::string checkpoint = options.work_dir + "/" + job + ".ckpt";
  pid_t victim = -1;
  for (int i = 0; i < 500 && victim < 0; ++i) {
    const Json progress = client.result(job, /*wait=*/false);
    ASSERT_EQ(progress.at("type").as_string(), "pending")
        << "the job finished before a worker could be killed";
    if (progress.at("steps_done").as_uint() >= 1) {
      const Json status = client.status();
      const auto& busy = status.at("busy_pids").items();
      if (!busy.empty()) victim = static_cast<pid_t>(busy.front().as_int());
    }
    if (victim < 0) sleep_ms(20);
  }
  ASSERT_GT(victim, 0) << "no worker went busy after the first stage";
  EXPECT_FALSE(eval::load_checkpoint(checkpoint).sets.empty())
      << "the snapshot the re-issued ticket resumes from holds no tables";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  const Json result = client.result(job, /*wait=*/true);
  ASSERT_EQ(result.at("status").as_string(), "done");
  EXPECT_FALSE(result.at("cached").as_bool());
  EXPECT_GE(result.at("tickets_reissued").as_uint(), 1u)
      << "the killed worker's ticket was not re-issued";
  EXPECT_GE(result.at("tickets_issued").as_uint(), 2u);
  // The engine rounds the budget up to its simulation chunk grid.
  EXPECT_GE(result.at("simulations_done").as_uint(), 20000u);

  // Byte-identical verdict despite the crash and the worker handoff.
  EXPECT_EQ(result.at("verdict").dump(), expected);

  const Json status = client.status();
  EXPECT_GE(status.at("workers_restarted").as_uint(), 1u);
  EXPECT_GE(status.at("tickets_reissued").as_uint(), 1u);
  EXPECT_EQ(status.at("workers").as_uint(), 4u);  // pool is back to strength

  // Acceptance criterion: resubmitting the identical spec reports a cache
  // hit and performs zero simulation work.
  const Json again = client.submit(spec);
  EXPECT_TRUE(again.at("cached").as_bool());
  const Json cached =
      client.result(again.at("job").as_string(), /*wait=*/true);
  EXPECT_TRUE(cached.at("cached").as_bool());
  EXPECT_EQ(cached.at("simulations_done").as_uint(), 0u);
  EXPECT_EQ(cached.at("verdict").dump(), expected);
}

// --- verdict cache through the daemon ---------------------------------------

TEST(Service, CacheMissesWhenAnyKeyComponentFlips) {
  DaemonOptions options = daemon_options("cachekeys", 2);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);

  const JobSpec base = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 800);
  const Json first = client.submit(base);
  EXPECT_FALSE(first.at("cached").as_bool());
  ASSERT_EQ(client.result(first.at("job").as_string(), true)
                .at("status")
                .as_string(),
            "done");

  // Identical spec: hit.
  EXPECT_TRUE(client.submit(base).at("cached").as_bool());

  // One netlist byte (an appended comment changes the raw bytes): miss.
  JobSpec tweaked = base;
  tweaked.netlist += "# one extra byte matters\n";
  EXPECT_FALSE(client.submit(tweaked).at("cached").as_bool());

  // A different randomness plan (different wiring): miss.
  const JobSpec eq9 = kronecker_spec(RandomnessPlan::kron1_proposed_eq9(), 800);
  EXPECT_FALSE(client.submit(eq9).at("cached").as_bool());

  // A different budget: miss.
  JobSpec budget = base;
  budget.simulations = 900;
  EXPECT_FALSE(client.submit(budget).at("cached").as_bool());

  // A different seed: miss.
  JobSpec seeded = base;
  seeded.seed = 7;
  EXPECT_FALSE(client.submit(seeded).at("cached").as_bool());

  // Different staging of the identical job: still a hit.
  JobSpec staged = base;
  staged.stages = 4;
  staged.threads = 2;
  EXPECT_TRUE(client.submit(staged).at("cached").as_bool());
}

TEST(Service, CacheSurvivesDaemonRestart) {
  DaemonOptions options = daemon_options("cacherestart", 1);
  const JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 600);
  std::string verdict;
  {
    DaemonProcess daemon(options);
    ServiceClient client(options.socket_path);
    const Json ack = client.submit(spec);
    EXPECT_FALSE(ack.at("cached").as_bool());
    const Json result = client.result(ack.at("job").as_string(), true);
    ASSERT_EQ(result.at("status").as_string(), "done");
    verdict = result.at("verdict").dump();
    client.shutdown();
  }
  {
    // Fresh daemon process, same cache directory: the entry persists.
    DaemonProcess daemon(options);
    ServiceClient client(options.socket_path);
    const Json ack = client.submit(spec);
    EXPECT_TRUE(ack.at("cached").as_bool());
    const Json result = client.result(ack.at("job").as_string(), true);
    EXPECT_EQ(result.at("simulations_done").as_uint(), 0u);
    EXPECT_EQ(result.at("verdict").dump(), verdict);
  }
}

// --- other job kinds through the service ------------------------------------

TEST(Service, LintJobReturnsLintVerdict) {
  DaemonOptions options = daemon_options("lintjob", 1);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);
  JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 1);
  spec.kind = JobKind::kLint;
  const Json ack = client.submit(spec);
  const Json result = client.result(ack.at("job").as_string(), true);
  ASSERT_EQ(result.at("status").as_string(), "done");
  const Json& verdict = result.at("verdict");
  EXPECT_EQ(verdict.at("backend").as_string(), "lint");
  // Eq. (6)'s fresh-mask reuse is a known lint finding.
  EXPECT_FALSE(verdict.at("clean").as_bool());
}

TEST(Service, SearchWindowMatchesDirectSweepAcrossTickets) {
  JobSpec spec;
  spec.kind = JobKind::kSearch;
  spec.search_begin = 0;
  spec.search_end = 6;
  spec.search_chunk = 2;             // three chunks in the window
  spec.search_chunks_per_ticket = 1; // one chunk per ticket => three tickets
  spec.simulations = 500;
  spec.model = eval::ProbeModel::kGlitchTransition;
  spec.order = 2;

  // Direct in-process sweep of the same window (no service, no tickets).
  eval::SecondOrderSearchOptions direct;
  direct.model = spec.model;
  direct.order = spec.order;
  direct.simulations = spec.simulations;
  direct.seed = spec.seed;
  direct.threshold = spec.threshold;
  direct.lint_prefilter = spec.search_lint_prefilter;
  direct.begin = spec.search_begin;
  direct.end = spec.search_end;
  direct.chunk = spec.search_chunk;
  const std::string expected =
      Json::parse(search_verdict_json(eval::search_kron2_family13(direct))
                      .dump())
          .dump();

  DaemonOptions options = daemon_options("search", 2);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);
  const Json ack = client.submit(spec);
  const Json result = client.result(ack.at("job").as_string(), true);
  ASSERT_EQ(result.at("status").as_string(), "done");
  EXPECT_GE(result.at("tickets_issued").as_uint(), 3u);
  EXPECT_EQ(result.at("verdict").dump(), expected);
}

// --- protocol robustness ----------------------------------------------------

TEST(Service, MalformedAndHostileFramesDontWedgeTheDaemon) {
  DaemonOptions options = daemon_options("fuzz", 1);
  // A cap small enough to exercise the oversize path but big enough for the
  // legitimate kronecker submission at the end of the test.
  options.max_frame_bytes = 64 * 1024;
  DaemonProcess daemon(options);

  {  // Malformed JSON gets an error frame, connection stays usable.
    ServiceClient client(options.socket_path);
    const Json reply = Json::parse(client.roundtrip_raw("this is not json"));
    EXPECT_EQ(reply.at("type").as_string(), "error");
    const Json still = Json::parse(client.roundtrip_raw("{\"cmd\":\"status\"}"));
    EXPECT_EQ(still.at("type").as_string(), "status");
  }
  {  // Unknown command.
    ServiceClient client(options.socket_path);
    const Json reply =
        Json::parse(client.roundtrip_raw("{\"cmd\":\"frobnicate\"}"));
    EXPECT_EQ(reply.at("type").as_string(), "error");
  }
  {  // Unknown job kind inside a submit spec.
    ServiceClient client(options.socket_path);
    const Json reply = Json::parse(client.roundtrip_raw(
        R"({"cmd":"submit","spec":{"kind":"bogus","netlist":"x"}})"));
    EXPECT_EQ(reply.at("type").as_string(), "error");
  }
  {  // Submit without a netlist.
    ServiceClient client(options.socket_path);
    const Json reply = Json::parse(client.roundtrip_raw(
        R"({"cmd":"submit","spec":{"kind":"campaign"}})"));
    EXPECT_EQ(reply.at("type").as_string(), "error");
  }
  {  // Spec that parses but names an invalid netlist: the job errors out.
    ServiceClient client(options.socket_path);
    JobSpec bad;
    bad.kind = JobKind::kCampaign;
    bad.netlist = "gate g0 FROB a b\n";
    bad.simulations = 10;
    const Json ack = client.submit(bad);
    const Json result = client.result(ack.at("job").as_string(), true);
    EXPECT_EQ(result.at("status").as_string(), "error");
    EXPECT_FALSE(result.at("error").as_string().empty());
  }
  {  // Oversized frame (e.g. an oversized netlist): refused, client dropped.
    ServiceClient client(options.socket_path);
    const std::string huge(128 * 1024, 'x');
    const Json reply = Json::parse(client.roundtrip_raw(huge));
    EXPECT_EQ(reply.at("type").as_string(), "error");
  }
  {  // Result for a job that does not exist.
    ServiceClient client(options.socket_path);
    const Json reply = Json::parse(
        client.roundtrip_raw(R"({"cmd":"result","job":"j999"})"));
    EXPECT_EQ(reply.at("type").as_string(), "error");
  }

  // After all of the above, the daemon still schedules real work.
  ServiceClient client(options.socket_path);
  const JobSpec spec =
      kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 400);
  const Json ack = client.submit(spec);
  const Json result = client.result(ack.at("job").as_string(), true);
  EXPECT_EQ(result.at("status").as_string(), "done");
}

TEST(Service, ClientDisconnectMidWatchLeavesJobRunning) {
  DaemonOptions options = daemon_options("discon", 1);
  DaemonProcess daemon(options);

  JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 2000);
  spec.stages = 5;
  spec.throttle_ms = 100;  // slow the job down enough to vanish mid-stream

  ServiceClient submitter(options.socket_path);
  const Json ack = submitter.submit(spec);
  const std::string job = ack.at("job").as_string();
  {
    // A watcher that registers and then vanishes without reading a thing.
    ServiceClient watcher(options.socket_path);
    ASSERT_TRUE(
        !Json::parse(watcher.roundtrip_raw("{\"cmd\":\"watch\",\"job\":\"" +
                                           job + "\"}"))
             .get_string("type", "")
             .empty());
  }  // destructor closes the socket mid-watch

  const Json result = submitter.result(job, /*wait=*/true);
  EXPECT_EQ(result.at("status").as_string(), "done");
  // And the daemon is still healthy.
  EXPECT_EQ(submitter.status().at("type").as_string(), "status");
}

TEST(Service, ConcurrentIdenticalSubmissionsMergeInFlight) {
  DaemonOptions options = daemon_options("merge", 1);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);

  JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 1500);
  spec.stages = 4;
  spec.throttle_ms = 150;  // keep it in flight while we resubmit
  const Json first = client.submit(spec);
  const Json second = client.submit(spec);
  EXPECT_EQ(second.at("job").as_string(), first.at("job").as_string());
  EXPECT_TRUE(second.get_bool("merged", false));
  const Json result = client.result(first.at("job").as_string(), true);
  EXPECT_EQ(result.at("status").as_string(), "done");
}

TEST(Service, WatchStreamsStagesThenResult) {
  DaemonOptions options = daemon_options("watch", 1);
  DaemonProcess daemon(options);
  ServiceClient client(options.socket_path);

  JobSpec spec = kronecker_spec(RandomnessPlan::kron1_demeyer_eq6(), 3000);
  spec.stages = 4;
  spec.throttle_ms = 50;  // ensure the watch registers before stages pass
  const Json ack = client.submit(spec);

  ServiceClient watcher(options.socket_path);
  std::vector<Json> stages;
  const Json result = watcher.watch(
      ack.at("job").as_string(),
      [&](const Json& frame) { stages.push_back(frame); });
  EXPECT_EQ(result.at("status").as_string(), "done");
  ASSERT_FALSE(stages.empty());
  for (const Json& frame : stages) {
    // Every relayed line is independently parseable (it arrived parsed) and
    // tagged with both its backend and the job that produced it.
    EXPECT_EQ(frame.at("job").as_string(), ack.at("job").as_string());
    EXPECT_EQ(frame.get_string("backend", ""), "campaign");
  }
}

}  // namespace
}  // namespace sca::service
