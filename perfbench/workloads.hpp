// The benchmark's workloads. Each one drives the engine only through
// its public headers and checks the paper goldens on every iteration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.hpp"
#include "src/service/json.hpp"

namespace perfbench {

/// Golden checks of one run. Every mismatch counts as a verdict error.
class Goldens {
 public:
  void expect(const std::string& what, bool ok);
  /// expect() on a count, naming the measured value on a mismatch.
  void expect_eq(const std::string& what, std::size_t got, std::size_t want);

  /// Records the FNV-1a digest of `text` under `name`. Later records of the
  /// same name in this run must repeat it (the run re-evaluates identical
  /// inputs); a non-empty `pinned` digest must match too.
  void digest(const std::string& name, const std::string& text,
              const std::string& pinned = "");

  std::size_t checked() const { return checked_; }
  std::size_t errors() const { return errors_; }
  const sca::service::Json& digests() const { return digests_; }
  const sca::service::Json& mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t errors_ = 0;
  sca::service::Json digests_ = sca::service::Json::object();
  sca::service::Json mismatches_ = sca::service::Json::array();
};

std::string fnv1a_hex(const std::string& text);

double median(std::vector<double> v);

struct Context {
  std::uint64_t seed = 1;
  unsigned threads = 1;   ///< engine worker threads (usable cores)
  bool tiny = false;      ///< self-test budget: small campaigns, same goldens
  std::string out_dir;    ///< temporary files and traces, inside the checkout
  Tracer* tracer = nullptr;
  Goldens* goldens = nullptr;
};

/// Per-layer metric values by name; names absent here report 0 (the layer
/// is not exercised by the workload).
using Layers = std::map<std::string, double>;

struct Iteration {
  double wall_s = 0.0;  ///< wall time of the timed engine calls only
  double work = 0.0;    ///< work units those calls completed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Work unit of Iteration::work ("sims"); names the throughput row
  /// "<unit>_per_s".
  virtual const char* work_unit() const = 0;
  /// Processes per run whose threads run engine work (evald workers).
  virtual unsigned workers() const { return 1; }
  /// Builds the inputs. Called several times; the last build is used.
  /// Returns the time spent building netlists (gadgets.build_s).
  virtual double setup() = 0;
  /// The timed engine calls of one iteration, goldens checked.
  virtual Iteration run() = 0;
  /// Untimed checks after the measured iterations.
  virtual void finish() {}
  /// Traced run only: the layer replays, outside wall_s.
  virtual void replay(Layers& out) = 0;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx);

/// Workload names in the order BENCHMARK.json lists them.
extern const char* const kWorkloadNames[4];

}  // namespace perfbench
