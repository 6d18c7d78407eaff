// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed on the main thread around calls into the
// engine's public functions; nothing inside the engine is instrumented. A
// disabled recorder keeps nothing, so the untraced runs pay one clock read
// per timed call and no allocation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/service/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span; times are seconds since the recorder's origin.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  explicit Tracer(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::string& run_id() const { return run_id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[index].end = now();
    // Spans nest strictly (RAII scopes on one thread), so `index` is on top.
    stack_.pop_back();
  }

  /// Duration minus the part of it covered by the span's direct children.
  double self_time(std::size_t index) const {
    std::vector<std::pair<double, double>> kids;
    for (const SpanRecord& s : spans_)
      if (s.parent == static_cast<int>(index)) kids.emplace_back(s.start, s.end);
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = spans_[index].start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    return (spans_[index].end - spans_[index].start) - covered;
  }

  /// Chrome trace-event JSON (complete "X" events, microseconds), which
  /// Perfetto and chrome://tracing open offline.
  sca::service::Json chrome_trace() const {
    using sca::service::Json;
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      Json args = Json::object();
      args.set("run_id", run_id_);
      args.set("parent", s.parent < 0 ? std::string() : spans_[s.parent].name);
      args.set("self_us", self_time(i) * 1e6);
      Json e = Json::object();
      e.set("name", s.name);
      e.set("cat", "perfbench");
      e.set("ph", "X");
      e.set("ts", s.start * 1e6);
      e.set("dur", (s.end - s.start) * 1e6);
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool enabled_ = false;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Scoped span: records [construction, destruction) when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.open(std::move(name))) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Runs f() inside span `name` and returns its wall time in seconds.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& f) {
  Span span(tracer, name);
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
