// Error-handling helpers shared across the library.
//
// Library code throws sca::common::Error (derived from std::runtime_error)
// for contract violations that a caller can meaningfully react to, and uses
// SCA_ASSERT for internal invariants that indicate a bug in this library.
#pragma once

#include <stdexcept>
#include <string>

namespace sca::common {

/// Exception type thrown by all modules of this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws sca::common::Error with the given message if `cond` is false.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

/// The same for a literal message, which is only turned into a string when
/// the check fails (hot paths such as Netlist::add_gate check on every
/// call).
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

}  // namespace sca::common

// Internal invariant check: always on (the circuits are small; correctness
// of a leakage evaluator matters more than the last few percent of speed).
#define SCA_ASSERT(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) {                                                          \
      throw ::sca::common::Error(std::string("internal invariant failed: ") + \
                                 (msg) + " [" #cond "]");                   \
    }                                                                       \
  } while (0)
