#include "src/core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

namespace sca::eval {

namespace {

// Minimal JSON string escaping — probe-set names only contain identifier
// characters, dots, '&' and spaces, but a correct writer costs nothing.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string verdict_line(const CampaignResult& result) {
  std::ostringstream os;
  os << (result.pass ? "PASS" : "FAIL") << " (max "
     << (result.statistic == Statistic::kWelchTTest ? "|t|" : "-log10(p)")
     << " = " << std::fixed << std::setprecision(2)
     << result.max_minus_log10_p << " over " << result.total_sets
     << " probe sets, " << result.leaking_sets << " leaking)";
  return os.str();
}

std::string to_string(const CampaignResult& result, std::size_t top_n) {
  std::ostringstream os;
  os << "fixed-vs-random campaign: " << to_string(result.model) << ", order "
     << result.order << ", " << result.simulations_per_group
     << " simulations/group, " << result.threads_used
     << (result.threads_used == 1 ? " thread" : " threads");
  if (result.set_major)
    os << ", set-major";
  else if (result.table_batches > 1)
    os << ", " << result.table_batches << " table batches";
  os << "\n";
  os << "verdict: " << verdict_line(result) << "\n";
  if (result.dropped_sets)
    os << "WARNING: " << result.dropped_sets
       << " probe sets dropped by max_probe_sets cap\n";
  os << std::fixed << std::setprecision(2);
  os << "  -log10(p)  bits  probe set\n";
  for (const ProbeSetResult* r : result.top(top_n)) {
    os << "  " << std::setw(9) << r->minus_log10_p << "  " << std::setw(4)
       << r->observation_bits << "  " << r->name
       << (r->compacted ? " [compact]" : "") << (r->leaking ? "  <-- LEAK" : "")
       << "\n";
  }
  return os.str();
}

std::string stage_line(const StageReport& report) {
  std::ostringstream os;
  os << "stage " << report.stage << "/" << report.stages_total;
  if (report.batches_total > 1)
    os << " (batch " << report.batch << "/" << report.batches_total << ")";
  os << ": " << report.simulations_done << "/" << report.simulations_total
     << " sims, max = " << std::fixed << std::setprecision(2)
     << report.max_minus_log10_p;
  if (!report.worst_set.empty()) os << " (" << report.worst_set << ")";
  os << ", " << report.leaking_sets
     << (report.leaking_sets == 1 ? " leak" : " leaks");
  if (report.sims_per_second > 0.0)
    os << ", " << std::setprecision(0) << report.sims_per_second << " sims/s";
  if (report.early_stopped) os << "  [early stop]";
  return os.str();
}

std::string to_json(const StageReport& report) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  os << "{\"backend\":\"campaign\",\"type\":\"stage\""
     << ",\"stage\":" << report.stage
     << ",\"stages_total\":" << report.stages_total
     << ",\"batch\":" << report.batch
     << ",\"batches_total\":" << report.batches_total
     << ",\"simulations_done\":" << report.simulations_done
     << ",\"simulations_total\":" << report.simulations_total
     << ",\"max_minus_log10_p\":" << report.max_minus_log10_p
     << ",\"worst_set\":\"" << json_escape(report.worst_set) << "\""
     << ",\"leaking_sets\":" << report.leaking_sets
     << ",\"pass_so_far\":" << (report.pass_so_far ? "true" : "false")
     << ",\"stage_seconds\":" << report.stage_seconds
     << ",\"sims_per_second\":" << report.sims_per_second
     << ",\"simulate_seconds\":" << report.simulate_seconds
     << ",\"accumulate_seconds\":" << report.accumulate_seconds
     << ",\"merge_seconds\":" << report.merge_seconds
     << ",\"extract_seconds\":" << report.extract_seconds
     << ",\"transpose_seconds\":" << report.transpose_seconds
     << ",\"histogram_seconds\":" << report.histogram_seconds
     << ",\"aliased_probe_sets\":" << report.aliased_probe_sets
     << ",\"early_stopped\":" << (report.early_stopped ? "true" : "false")
     << ",\"checkpoint\":\"" << json_escape(report.checkpoint_path) << "\"}";
  return os.str();
}

std::string to_json(const CampaignResult& result, std::size_t top_n) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  os << "{\"backend\":\"campaign\",\"type\":\"result\""
     << ",\"pass\":" << (result.pass ? "true" : "false")
     << ",\"statistic\":\""
     << (result.statistic == Statistic::kWelchTTest ? "ttest" : "gtest")
     << "\""
     << ",\"max_minus_log10_p\":" << result.max_minus_log10_p
     << ",\"leaking_sets\":" << result.leaking_sets
     << ",\"total_sets\":" << result.total_sets
     << ",\"unevaluated_sets\":" << result.unevaluated_sets
     << ",\"simulations_per_group\":" << result.simulations_per_group
     << ",\"simulations_done\":" << result.simulations_done
     << ",\"stages_total\":" << result.stages_total
     << ",\"stages_completed\":" << result.stages_completed
     << ",\"early_stopped\":" << (result.early_stopped ? "true" : "false")
     << ",\"interrupted\":" << (result.interrupted ? "true" : "false")
     << ",\"resumed\":" << (result.resumed ? "true" : "false")
     << ",\"threads\":" << result.threads_used
     << ",\"table_batches\":" << result.table_batches
     << ",\"set_major\":" << (result.set_major ? "true" : "false")
     << ",\"simulate_seconds\":" << result.simulate_seconds
     << ",\"accumulate_seconds\":" << result.accumulate_seconds
     << ",\"merge_seconds\":" << result.merge_seconds
     << ",\"extract_seconds\":" << result.extract_seconds
     << ",\"transpose_seconds\":" << result.transpose_seconds
     << ",\"histogram_seconds\":" << result.histogram_seconds
     << ",\"aliased_probe_sets\":" << result.aliased_probe_sets
     << ",\"hosted_sets\":" << result.hosted_sets
     << ",\"set_shards\":" << result.set_shards << ",\"top\":[";
  bool first = true;
  for (const ProbeSetResult* r : result.top(top_n)) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(r->name) << "\""
       << ",\"minus_log10_p\":" << r->minus_log10_p
       << ",\"bits\":" << r->observation_bits
       << ",\"compacted\":" << (r->compacted ? "true" : "false")
       << ",\"leaking\":" << (r->leaking ? "true" : "false")
       << ",\"aliases\":" << r->aliases.size();
    if (!r->aliases.empty()) {
      // Names capped to keep the report bounded; the count above is exact.
      os << ",\"alias_names\":[";
      const std::size_t shown = std::min<std::size_t>(r->aliases.size(), 8);
      for (std::size_t i = 0; i < shown; ++i)
        os << (i ? "," : "") << "\"" << json_escape(r->aliases[i]) << "\"";
      os << "]";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string verdict_json(const CampaignResult& result) {
  // %.17g round-trips IEEE doubles exactly; std::fixed would not.
  char num[64];
  const auto put_double = [&](std::ostringstream& os, double v) {
    std::snprintf(num, sizeof(num), "%.17g", v);
    os << num;
  };
  // Re-sort under a total order: campaign.cpp sorts by severity with an
  // unstable std::sort, so equal-severity neighbours may swap between runs.
  std::vector<const ProbeSetResult*> ordered;
  ordered.reserve(result.results.size());
  for (const ProbeSetResult& r : result.results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const ProbeSetResult* a, const ProbeSetResult* b) {
              if (a->minus_log10_p != b->minus_log10_p)
                return a->minus_log10_p > b->minus_log10_p;
              return a->name < b->name;
            });
  std::ostringstream os;
  os << "{\"backend\":\"campaign\",\"type\":\"verdict\""
     << ",\"pass\":" << (result.pass ? "true" : "false")
     << ",\"statistic\":\""
     << (result.statistic == Statistic::kWelchTTest ? "ttest" : "gtest")
     << "\",\"model\":\""
     << (result.model == ProbeModel::kGlitchTransition ? "transition"
                                                       : "glitch")
     << "\",\"order\":" << result.order << ",\"max_minus_log10_p\":";
  put_double(os, result.max_minus_log10_p);
  os << ",\"leaking_sets\":" << result.leaking_sets
     << ",\"total_sets\":" << result.total_sets
     << ",\"dropped_sets\":" << result.dropped_sets
     << ",\"unevaluated_sets\":" << result.unevaluated_sets
     << ",\"simulations_per_group\":" << result.simulations_per_group
     << ",\"early_stopped\":" << (result.early_stopped ? "true" : "false")
     << ",\"sets\":[";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const ProbeSetResult* r = ordered[i];
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(r->name) << "\",\"minus_log10_p\":";
    put_double(os, r->minus_log10_p);
    os << ",\"bits\":" << r->observation_bits
       << ",\"compacted\":" << (r->compacted ? "true" : "false")
       << ",\"leaking\":" << (r->leaking ? "true" : "false")
       << ",\"aliases\":" << r->aliases.size() << "}";
  }
  os << "]}";
  return os.str();
}

std::string to_json(const lint::LintReport& report) {
  std::ostringstream os;
  os << "{\"backend\":\"lint\",\"model\":\"" << lint::to_string(report.model)
     << "\",\"order\":" << report.order
     << ",\"clean\":" << (report.clean() ? "true" : "false")
     << ",\"probes_checked\":" << report.probes_checked
     << ",\"probes_flagged\":" << report.probes_flagged
     << ",\"otp_cuts\":" << report.cuts_applied;
  if (report.order >= 2)
    os << ",\"pairs_enumerated\":" << report.pairs_enumerated
       << ",\"pairs_deduped\":" << report.pairs_deduped;
  os << ",\"truncated\":" << (report.truncated ? "true" : "false")
     << ",\"sliced\":" << (report.sliced ? "true" : "false")
     << ",\"cut_registers\":" << report.cut_registers << ",\"findings\":[";
  const auto string_array = [&](const std::vector<std::string>& items) {
    os << "[";
    for (std::size_t i = 0; i < items.size(); ++i)
      os << (i ? "," : "") << "\"" << json_escape(items[i]) << "\"";
    os << "]";
  };
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const lint::LintFinding& f = report.findings[i];
    if (i) os << ",";
    os << "{\"rule\":\"" << lint::lint_rule_name(f.rule) << "\""
       << ",\"probe\":\"" << json_escape(f.probe_name) << "\"";
    if (f.probe2 != netlist::kNoSignal)
      os << ",\"probe2\":\"" << json_escape(f.probe2_name) << "\"";
    os << ",\"offending\":";
    string_array(f.offending);
    os << ",\"shared_fresh\":";
    string_array(f.shared_fresh);
    os << ",\"completed\":";
    string_array(f.completed);
    os << ",\"message\":\"" << json_escape(f.message) << "\"";
    if (f.certificate) {
      const lint::LintCertificate& c = *f.certificate;
      os << ",\"certificate\":{\"available\":"
         << (c.available ? "true" : "false");
      if (!c.available) {
        os << ",\"reason\":\"" << json_escape(c.unavailable_reason) << "\"}";
      } else {
        os << ",\"secret_bits\":";
        string_array(c.secret_bits);
        os << ",\"secret_a\":" << c.secret_a << ",\"secret_b\":" << c.secret_b
           << ",\"tv_distance\":" << c.tv_distance
           << ",\"observation\":" << c.observation
           << ",\"count_a\":" << c.count_a << ",\"count_b\":" << c.count_b
           << ",\"assignment\":{";
        for (std::size_t j = 0; j < c.assignment.size(); ++j)
          os << (j ? "," : "") << "\"" << json_escape(c.assignment[j].first)
             << "\":" << (c.assignment[j].second ? 1 : 0);
        os << "}}";
      }
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

void default_stage_sink(const StageReport& report) {
  std::printf("%s\n", stage_line(report).c_str());
  std::fflush(stdout);
  if (const char* path = std::getenv("SCA_STAGE_JSON")) {
    std::ofstream os(path, std::ios::app);
    if (os.good()) os << to_json(report) << "\n";
  }
}

}  // namespace sca::eval
