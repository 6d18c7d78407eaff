// Command-line leakage evaluator — the PROLEAD-like front end of this
// library. Reads a gate-level netlist in the SNL text format (with share/
// random input roles declared inline, see src/netlist/textio.hpp) and runs
// the requested evaluation.
//
//   usage: evaltool <netlist.snl> [options]
//     --model glitch|transition   probing model            (default glitch)
//     --order N                   probing order 1|2        (default 1)
//     --sims N                    simulations per group    (default 200000)
//     --fixed G=V                 fixed value V for secret group G (hex ok;
//                                 repeatable; unlisted groups fix to 0)
//     --threshold X               -log10(p) leakage bound  (default 7.0)
//     --scope PREFIX              only probe signals under this name prefix
//     --seed N                    campaign seed            (default 1)
//     --top N                     probe sets to print      (default 10)
//     --exact                     also run the exact first-order glitch
//                                 verifier (pipelines only)
//     --lint                      also run the static leakage linter under
//                                 the selected --model (pipelines only);
//                                 findings count as FAIL
//     --lint-slice                let the linter cut register feedback at
//                                 annotated state registers and lint the
//                                 whole design (implies --lint)
//     --lint-certify              attach an exact counterexample certificate
//                                 to every lint finding (implies --lint)
//     --json                      print one machine-readable JSON summary
//                                 line per backend at the end (every line
//                                 carries a "backend" tag and parses on its
//                                 own, so interleaved streams stay sound)
//     --job NAME                  tag every JSON line (summaries and
//                                 SCA_STAGE_JSON stage lines) with
//                                 "job":"NAME" — disambiguates interleaved
//                                 output when several evaluations append to
//                                 one stream
//     --stages N                  split the budget into N evaluation stages
//                                 with a progress report after each
//                                 (SCA_STAGES works too)
//     --checkpoint PATH           snapshot the campaign at every stage
//                                 boundary into PATH
//     --resume                    resume from --checkpoint if it exists
//     --early-stop N              stop once a leak clears the threshold by
//                                 --early-stop-margin for N straight stages
//     --early-stop-margin X       early-stop margin         (default 3.0)
//
// Example (the paper's flawed Kronecker, exported by examples/netlist_tour):
//   evaltool kronecker.snl --fixed 0=0 --exact
// Interrupted-campaign workflow:
//   evaltool big.snl --stages 10 --checkpoint run.ckpt   # killed at stage 6
//   evaltool big.snl --stages 10 --checkpoint run.ckpt --resume
//
// Client mode — talk to a running `evald` daemon instead of evaluating
// locally (all output is line-delimited JSON, each line self-identifying
// via "job"/"backend" fields):
//   evaltool submit <socket> <netlist.snl> [job flags] [--watch]
//            job flags: --kind campaign|lint|search, --model, --order,
//            --sims, --fixed, --threshold, --scope, --seed, --stages,
//            --threads, --throttle-ms, --lint-slice, --lint-certify,
//            --begin/--end/--chunk (search; no netlist argument)
//   evaltool watch <socket> <job-id>         stream stages + final result
//   evaltool result <socket> <job-id> [--wait]
//   evaltool status <socket>
//   evaltool shutdown <socket>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/check.hpp"
#include "src/core/campaign.hpp"
#include "src/core/report.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/client.hpp"
#include "src/service/job.hpp"
#include "src/verif/exact.hpp"

using namespace sca;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <netlist.snl> [--model glitch|transition] "
               "[--order N] [--sims N]\n"
               "       [--fixed G=V]... [--threshold X] [--scope PREFIX] "
               "[--seed N] [--top N] [--exact] [--lint] [--lint-slice] "
               "[--lint-certify] [--json]\n"
               "       [--stages N] [--checkpoint PATH] [--resume] "
               "[--early-stop N] [--early-stop-margin X]\n"
               "       [--lanes 64|256|512]\n"
               "  --lanes selects the SIMD batch width (default: SCA_LANES "
               "env, else the native width);\n"
               "  --job NAME tags every JSON line with \"job\":\"NAME\".\n"
               "client mode (line-delimited JSON against a running evald):\n"
               "  %s submit <socket> <netlist.snl> [job flags] [--watch]\n"
               "  %s watch <socket> <job-id>\n"
               "  %s result <socket> <job-id> [--wait]\n"
               "  %s status|shutdown <socket>\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

std::string read_file(const char* path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void print_frame(const service::Json& frame) {
  std::printf("%s\n", frame.dump().c_str());
  std::fflush(stdout);
}

// `evaltool submit|watch|result|status|shutdown <socket> ...` — the client
// mode of the evaluation service. Every output line is one JSON frame.
int client_main(int argc, char** argv) {
  const std::string cmd = argv[1];
  if (argc < 3) usage(argv[0]);
  const std::string socket_path = argv[2];
  try {
    service::ServiceClient client(socket_path);
    if (cmd == "status" || cmd == "shutdown") {
      print_frame(cmd == "status" ? client.status() : client.shutdown());
      return 0;
    }
    if (cmd == "watch" || cmd == "result") {
      if (argc < 4) usage(argv[0]);
      const std::string job = argv[3];
      bool wait = false;
      for (int i = 4; i < argc; ++i)
        if (std::string(argv[i]) == "--wait") wait = true;
      const service::Json frame =
          cmd == "watch" ? client.watch(job, print_frame)
                         : client.result(job, wait);
      print_frame(frame);
      return frame.get_string("status", "") == "error" ? 1 : 0;
    }
    if (cmd != "submit") usage(argv[0]);

    service::JobSpec spec;
    const char* netlist_path = nullptr;
    bool watch_after = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--kind") {
        const std::string k = next();
        if (k == "campaign")
          spec.kind = service::JobKind::kCampaign;
        else if (k == "lint")
          spec.kind = service::JobKind::kLint;
        else if (k == "search")
          spec.kind = service::JobKind::kSearch;
        else
          usage(argv[0]);
      } else if (arg == "--model") {
        const std::string m = next();
        if (m == "glitch")
          spec.model = eval::ProbeModel::kGlitch;
        else if (m == "transition")
          spec.model = eval::ProbeModel::kGlitchTransition;
        else
          usage(argv[0]);
      } else if (arg == "--order") {
        spec.order = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
      } else if (arg == "--sims") {
        spec.simulations = std::strtoul(next(), nullptr, 10);
      } else if (arg == "--fixed") {
        const std::string fixed = next();
        const auto eq = fixed.find('=');
        if (eq == std::string::npos) usage(argv[0]);
        spec.fixed_values[static_cast<std::uint32_t>(
            std::stoul(fixed.substr(0, eq)))] =
            static_cast<std::uint8_t>(
                std::stoul(fixed.substr(eq + 1), nullptr, 0));
      } else if (arg == "--threshold") {
        spec.threshold = std::strtod(next(), nullptr);
      } else if (arg == "--scope") {
        spec.scope = next();
      } else if (arg == "--seed") {
        spec.seed = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--stages") {
        spec.stages = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
      } else if (arg == "--threads") {
        spec.threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
      } else if (arg == "--throttle-ms") {
        spec.throttle_ms =
            static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
      } else if (arg == "--lint-slice") {
        spec.lint_slice = true;
      } else if (arg == "--lint-certify") {
        spec.lint_certify = true;
      } else if (arg == "--begin") {
        spec.search_begin = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--end") {
        spec.search_end = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--chunk") {
        spec.search_chunk = std::strtoul(next(), nullptr, 10);
      } else if (arg == "--watch") {
        watch_after = true;
      } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        usage(argv[0]);
      } else {
        netlist_path = argv[i];
      }
    }
    if (spec.kind != service::JobKind::kSearch) {
      if (!netlist_path) usage(argv[0]);
      spec.netlist = read_file(netlist_path);
    }
    const service::Json ack = client.submit(spec);
    print_frame(ack);
    if (!watch_after) return 0;
    const service::Json frame =
        client.watch(ack.at("job").as_string(), print_frame);
    print_frame(frame);
    return frame.get_string("status", "") == "error" ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  {
    const std::string cmd = argv[1];
    if (cmd == "submit" || cmd == "watch" || cmd == "result" ||
        cmd == "status" || cmd == "shutdown")
      return client_main(argc, argv);
  }

  eval::CampaignOptions options;
  bool run_exact = false;
  bool run_lint = false;
  bool lint_slice = false;
  bool lint_certify = false;
  bool json = false;
  std::string job_tag;
  std::size_t top = 10;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--model") {
      const std::string m = next();
      if (m == "glitch")
        options.model = eval::ProbeModel::kGlitch;
      else if (m == "transition")
        options.model = eval::ProbeModel::kGlitchTransition;
      else
        usage(argv[0]);
    } else if (arg == "--order") {
      options.order = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--sims") {
      options.simulations = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--fixed") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      const auto group =
          static_cast<std::uint32_t>(std::stoul(spec.substr(0, eq)));
      options.fixed_values[group] = static_cast<std::uint8_t>(
          std::stoul(spec.substr(eq + 1), nullptr, 0));
    } else if (arg == "--threshold") {
      options.threshold = std::strtod(next(), nullptr);
    } else if (arg == "--scope") {
      options.probe_scope_filter = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--top") {
      top = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--exact") {
      run_exact = true;
    } else if (arg == "--lint") {
      run_lint = true;
    } else if (arg == "--lint-slice") {
      run_lint = lint_slice = true;
    } else if (arg == "--lint-certify") {
      run_lint = lint_certify = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--job") {
      job_tag = next();
    } else if (arg == "--stages") {
      options.stages = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = next();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--early-stop") {
      options.early_stop_stages =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--early-stop-margin") {
      options.early_stop_margin = std::strtod(next(), nullptr);
    } else if (arg == "--lanes") {
      options.lanes = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else {
      usage(argv[0]);
    }
  }

  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();

  try {
    const netlist::Netlist nl = netlist::parse_snl(text.str());
    std::printf("netlist: %zu gates, %zu registers, %u secret group(s), "
                "%zu random bits\n\n",
                nl.size(), nl.registers().size(), nl.secret_group_count(),
                nl.random_input_count());

    // SNL `nonzerobus` annotations drive every backend's constrained-
    // randomness handling: the campaign draws those buses from GF(256)*,
    // the exact verifier enumerates over GF(256)* (honor_nonzero_buses),
    // and the linter applies the support-annotation sublattice — so whole
    // multiplicative designs evaluate without scope fences.
    for (const auto& bus : nl.nonzero_buses())
      options.nonzero_random_buses.push_back(bus);

    bool leak = false;
    std::string json_lines;
    // Every JSON line already self-identifies its backend; --job adds the
    // caller's stream tag so lines from several evaluations writing to one
    // file stay attributable — each line still parses on its own.
    const auto tagged = [&](const std::string& line) {
      if (job_tag.empty()) return line;
      service::Json j = service::Json::parse(line);
      j.set("job", job_tag);
      return j.dump();
    };
    if (run_lint) {
      lint::LintOptions lint_options;
      lint_options.model = options.model == eval::ProbeModel::kGlitchTransition
                               ? lint::LintModel::kGlitchTransition
                               : lint::LintModel::kGlitch;
      lint_options.scope_filter = options.probe_scope_filter;
      if (lint_slice) lint_options.feedback = lint::FeedbackMode::kSlice;
      lint_options.certify = lint_certify;
      try {
        const lint::LintReport report = lint::run_lint(nl, lint_options);
        std::printf("%s\n", to_string(report).c_str());
        leak |= !report.clean();
        if (json) json_lines += tagged(eval::to_json(report)) + "\n";
      } catch (const common::Error& e) {
        // Register feedback (e.g. an AES controller): the linter needs a
        // pipeline, the sampling campaign below still covers the circuit.
        std::printf("lint: skipped (%s)\n\n", e.what());
      }
    }
    if (run_exact) {
      const verif::ExactReport exact = verif::verify_first_order_glitch(nl);
      std::printf("%s\n", to_string(exact).c_str());
      leak |= exact.any_leak;
    }

    // Show stage progress whenever the evaluation is actually staged or
    // checkpointed (--stages / SCA_STAGES / --resume / --early-stop).
    bool staged = options.stages > 1 || options.resume ||
                  !options.checkpoint_path.empty() ||
                  options.early_stop_stages > 0;
    if (const char* env = std::getenv("SCA_STAGES"))
      staged |= std::strtoul(env, nullptr, 10) > 1;
    if (staged) {
      if (job_tag.empty()) {
        options.on_stage = eval::default_stage_sink;
      } else {
        options.on_stage = [&](const eval::StageReport& report) {
          std::printf("%s\n", eval::stage_line(report).c_str());
          std::fflush(stdout);
          if (const char* path = std::getenv("SCA_STAGE_JSON")) {
            std::ofstream os(path, std::ios::app);
            if (os.good()) os << tagged(eval::to_json(report)) << "\n";
          }
        };
      }
    }

    const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
    if (result.resumed)
      std::printf("resumed from %s\n", options.checkpoint_path.c_str());
    if (result.early_stopped)
      std::printf("early stop after %zu/%zu stages (%zu of %zu simulations "
                  "per group)\n",
                  result.stages_completed, result.stages_total,
                  result.simulations_done, result.simulations_per_group);
    std::printf("%s", to_string(result, top).c_str());
    leak |= !result.pass;
    if (json) {
      json_lines += tagged(eval::to_json(result, top)) + "\n";
      std::printf("%s", json_lines.c_str());
    }
    return leak ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
