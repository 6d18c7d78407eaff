// Self-test of the benchmark program: runs every workload once untraced and
// once traced at the tiny budget, parses every line it prints with
// service::Json, and checks the result line against BENCHMARK.json.
//
//   perfbench_selftest <path to perfbench> <path to BENCHMARK.json>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/service/json.hpp"

using sca::service::Json;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/// Runs `command`, returning its stdout lines; `status` gets the exit code.
std::vector<std::string> run(const std::string& command, int* status) {
  std::vector<std::string> lines;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (!pipe) {
    *status = -1;
    return lines;
  }
  std::string line;
  int c;
  while ((c = std::fgetc(pipe)) != EOF) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) lines.push_back(line);
  const int raw = ::pclose(pipe);
  *status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return lines;
}

void check_run(const std::string& exe, const Json& bench,
               const std::string& workload, int trace) {
  const std::string tag = workload + " --trace " + std::to_string(trace);
  int status = 0;
  const std::vector<std::string> lines =
      run("'" + exe + "' --workload " + workload +
              " --seed 1 --seconds 0 --tiny --trace " + std::to_string(trace),
          &status);
  expect(status == 0, tag + ": exit code " + std::to_string(status));
  expect(!lines.empty(), tag + ": printed nothing");
  if (lines.empty()) return;

  std::vector<Json> parsed;
  for (const std::string& line : lines) {
    try {
      parsed.push_back(Json::parse(line));
    } catch (const std::exception& e) {
      expect(false, tag + ": unparsable line (" + e.what() + "): " + line);
    }
  }
  if (parsed.size() != lines.size()) return;

  const Json& result = parsed.back();
  expect(result.is_object() && result.fields().size() == 4 &&
             result.has("correct") && result.has("attempted") &&
             result.has("failed") && result.has("metrics"),
         tag + ": result line keys");
  if (!result.is_object() || !result.has("metrics")) return;
  expect(result.at("correct").as_bool(), tag + ": correct");
  expect(result.at("attempted").as_int() >= 1, tag + ": attempted >= 1");
  expect(result.at("failed").as_int() == 0, tag + ": failed == 0");

  const Json& want = bench.at(trace ? "per_layer" : "end_to_end");
  const Json& got = result.at("metrics");
  expect(got.fields().size() == want.items().size(), tag + ": metric count");
  for (const Json& m : want.items()) {
    const std::string name = m.at("name").as_string();
    const Json* v = got.get(name);
    expect(v != nullptr, tag + ": missing metric " + name);
    if (!v) continue;
    expect(v->at("value").is_number(), tag + ": " + name + " is a number");
    expect(v->at("unit").as_string() == m.at("unit").as_string(),
           tag + ": " + name + " unit");
  }
  if (!trace) {
    for (const char* name : {"wall_s", "setup_s", "work_per_s", "peak_rss_mib"})
      if (const Json* v = got.get(name))
        expect(v->at("value").as_double() > 0.0, tag + ": " + name + " > 0");
  }

  bool stamp = false, goldens = false, spans = false;
  for (const Json& row : parsed) {
    const std::string type = row.get_string("type", "");
    stamp |= type == "stamp" && row.at("valid").as_bool();
    goldens |= type == "goldens";
    spans |= type == "span";
  }
  expect(stamp, tag + ": valid environment stamp");
  expect(goldens, tag + ": goldens row");
  expect(spans == (trace == 1), tag + ": span rows only when traced");
  std::fprintf(stderr, "checked %s: %zu lines\n", tag.c_str(), lines.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <perfbench> <BENCHMARK.json>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[2]);
  std::stringstream text;
  text << in.rdbuf();
  const Json bench = Json::parse(text.str());
  for (const Json& w : bench.at("workloads").items())
    for (int trace : {0, 1})
      check_run(argv[1], bench, w.at("name").as_string(), trace);
  std::fprintf(stderr, "%s (%d failure(s))\n", failures ? "FAILED" : "OK",
               failures);
  return failures ? 1 : 0;
}
