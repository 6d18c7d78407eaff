// Interpreted 64-lane netlist simulator: the equivalence oracle of the tape
// kernel (src/sim/tape.hpp) and the simulator of the reference campaign
// (tests/reference_campaign.hpp). It evaluates one gate at a time over one
// word per signal, in signal-id order, with its own gate semantics — it
// shares no code with compile_tape or run_tape, so agreement between the
// two is evidence, not tautology. It offers the sim::Simulator calls that
// the campaign's input feed and sample producer use
// (src/core/campaign_parts.hpp), at one limb.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/netlist/ir.hpp"

namespace sca::testutil {

class ReferenceSimulator {
 public:
  /// The netlist must outlive the simulator.
  explicit ReferenceSimulator(const netlist::Netlist& nl)
      : nl_(&nl), values_(nl.size(), 0) {
    nl.validate();
    for (netlist::SignalId id = 0; id < nl.size(); ++id)
      if (nl.kind(id) == netlist::GateKind::kReg) regs_.push_back(id);
    reg_next_.resize(regs_.size());
    reset();
  }

  unsigned limbs() const { return 1; }

  /// Clears register state and inputs; constants hold their value.
  void reset() {
    std::fill(values_.begin(), values_.end(), std::uint64_t{0});
    for (netlist::SignalId id = 0; id < nl_->size(); ++id)
      if (nl_->kind(id) == netlist::GateKind::kConst1)
        values_[id] = ~std::uint64_t{0};
  }

  void set_input(netlist::SignalId input, std::uint64_t lanes) {
    *input_limbs(input) = lanes;
  }

  std::uint64_t* input_limbs(netlist::SignalId input) {
    common::require(
        input < nl_->size() && nl_->kind(input) == netlist::GateKind::kInput,
        "ReferenceSimulator: signal is not a primary input");
    return &values_[input];
  }

  /// Combinational gates only read earlier ids, so id order settles them.
  void settle() {
    using netlist::GateKind;
    for (netlist::SignalId id = 0; id < nl_->size(); ++id) {
      const netlist::Gate& g = nl_->gate(id);
      const auto in = [&](std::size_t k) { return values_[g.fanin[k]]; };
      switch (g.kind) {
        case GateKind::kInput:
        case GateKind::kReg:
        case GateKind::kConst0:
        case GateKind::kConst1:
          break;
        case GateKind::kBuf:
          values_[id] = in(0);
          break;
        case GateKind::kNot:
          values_[id] = ~in(0);
          break;
        case GateKind::kAnd:
          values_[id] = in(0) & in(1);
          break;
        case GateKind::kNand:
          values_[id] = ~(in(0) & in(1));
          break;
        case GateKind::kOr:
          values_[id] = in(0) | in(1);
          break;
        case GateKind::kNor:
          values_[id] = ~(in(0) | in(1));
          break;
        case GateKind::kXor:
          values_[id] = in(0) ^ in(1);
          break;
        case GateKind::kXnor:
          values_[id] = ~(in(0) ^ in(1));
          break;
        case GateKind::kMux:
          values_[id] = (~in(0) & in(1)) | (in(0) & in(2));
          break;
      }
    }
  }

  /// Latches every register's D input.
  void clock() {
    for (std::size_t i = 0; i < regs_.size(); ++i)
      reg_next_[i] = values_[nl_->gate(regs_[i]).fanin[0]];
    for (std::size_t i = 0; i < regs_.size(); ++i)
      values_[regs_[i]] = reg_next_[i];
  }

  std::uint64_t value(netlist::SignalId signal) const {
    return values_[signal];
  }
  const std::uint64_t* value_limbs(netlist::SignalId signal) const {
    return &values_[signal];
  }

 private:
  const netlist::Netlist* nl_;
  std::vector<std::uint64_t> values_;  // one 64-lane word per signal
  std::vector<netlist::SignalId> regs_;
  std::vector<std::uint64_t> reg_next_;
};

}  // namespace sca::testutil
