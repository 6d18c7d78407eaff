// Internals of the exact verifier, shared with its equivalence tests: the
// enumeration problem of one probe (variables, input expressions,
// observation, nonzero-bus groups) and the cone it is evaluated over. Code
// outside src/verif/ uses exact.hpp; tests/reference_exact.hpp enumerates
// the same problem per lane over the whole unrolled netlist.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/netlist/ir.hpp"

namespace sca::verif::detail {

inline constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

/// One enumeration variable of the exact analysis.
struct Var {
  enum class Kind { kSecretBit, kFree } kind = Kind::kFree;
  /// For kSecretBit: which (secret group, bit); inputs depending on it are
  /// wired through share reconstruction (see InputExpr).
  std::uint32_t secret = 0;
  std::uint32_t bit = 0;
};

/// How one unrolled input gets its value during enumeration: XOR of a set
/// of variables (e.g. the last share of a fully-observed sharing is
/// secret-bit ^ all other shares).
struct InputExpr {
  netlist::SignalId input = netlist::kNoSignal;
  std::vector<std::size_t> var_indices;
  /// Cone position of `input`; kNoPos for a phantom nonzero-bus bit the
  /// cone never reads.
  std::uint32_t pos = kNoPos;
};

struct Analysis {
  /// Variables in analysis order: per complete sharing, its secret bit
  /// (first time seen) and all but the last share; then the remaining
  /// random and partial-sharing inputs in ascending unrolled id; then
  /// phantom nonzero-bus bits. Bit j of a preimage assignment index is
  /// vars[j].
  std::vector<Var> vars;
  std::vector<InputExpr> input_exprs;
  std::vector<std::size_t> secret_var_indices;  ///< subset of vars
  std::vector<netlist::SignalId> observation;   ///< unrolled signals, ascending
  /// Variable groups constrained to "not all zero" — one per annotated
  /// nonzero-bus instance the observation touches (GF(256)* enumeration).
  std::vector<std::array<std::size_t, 8>> nonzero_groups;
  /// The observation's combinational cone over the unrolled netlist,
  /// ascending by unrolled id, its fanins given as cone positions (so they
  /// precede their gate) — the gate list the enumeration compiles to a
  /// sim tape, with the cone's inputs as its driven sources.
  std::vector<netlist::Gate> cone;
  std::vector<std::uint32_t> observation_pos;  ///< cone position per bit
  bool feasible = true;
};

}  // namespace sca::verif::detail
