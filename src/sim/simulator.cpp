#include "src/sim/simulator.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/simd.hpp"

namespace sca::sim {

using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

Schedule::Schedule(const Netlist& nl, ScheduleOptions options)
    : nl_(&nl), lanes_(options.lanes), compiled_(options.compile) {
  nl.validate();
  common::require(common::valid_lane_width(lanes_),
                  "Schedule: lane width must be 64, 256, or 512");
  common::require(compiled_ || lanes_ == 64,
                  "Schedule: the interpreted oracle runs 64 lanes only");
  regs_ = nl.registers();
  for (SignalId id : nl.topological_order()) {
    switch (nl.kind(id)) {
      case GateKind::kInput:
      case GateKind::kReg:
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;  // sources; constants are fixed at reset
      default:
        comb_order_.push_back(id);
    }
  }
  if (compiled_) tape_ = compile_tape(nl, options.observed);
}

Simulator::Simulator(const Netlist& nl)
    : nl_(&nl),
      owned_schedule_(std::make_shared<const Schedule>(nl)),
      schedule_(owned_schedule_.get()) {
  slots_.assign(schedule_->slot_count() * limbs(), 0);
  reg_next_.assign(schedule_->registers().size() * limbs(), 0);
  reset();
}

Simulator::Simulator(const Schedule& schedule)
    : nl_(&schedule.netlist()), schedule_(&schedule) {
  slots_.assign(schedule_->slot_count() * limbs(), 0);
  reg_next_.assign(schedule_->registers().size() * limbs(), 0);
  reset();
}

void Simulator::reset() {
  const unsigned nlimbs = limbs();
  // std::fill, not memset: a netlist without registers leaves reg_next_
  // empty, and memset on its null data() is undefined behaviour.
  std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
  std::fill(reg_next_.begin(), reg_next_.end(), std::uint64_t{0});
  // Constants hold their value permanently.
  if (schedule_->compiled()) {
    for (std::uint32_t s : schedule_->tape().const_one_slots)
      for (unsigned b = 0; b < nlimbs; ++b)
        slots_[s * nlimbs + b] = ~std::uint64_t{0};
  } else {
    for (SignalId id = 0; id < nl_->size(); ++id)
      if (nl_->kind(id) == GateKind::kConst1) slots_[id] = ~std::uint64_t{0};
  }
}

std::uint64_t* Simulator::input_slot(SignalId input) {
  common::require(input < nl_->size() && nl_->kind(input) == GateKind::kInput,
                  "Simulator::set_input: signal is not a primary input");
  const std::uint32_t slot = schedule_->slot_of(input);
  SCA_ASSERT(slot != Tape::kNoSlot, "Simulator: input without a slot");
  return slots_.data() + static_cast<std::size_t>(slot) * limbs();
}

void Simulator::set_input(SignalId input, std::uint64_t lanes) {
  std::uint64_t* p = input_slot(input);
  p[0] = lanes;
  for (unsigned b = 1; b < limbs(); ++b) p[b] = 0;
}

void Simulator::set_input_all_lanes(SignalId input, bool v) {
  std::uint64_t* p = input_slot(input);
  const std::uint64_t w = v ? ~std::uint64_t{0} : 0;
  for (unsigned b = 0; b < limbs(); ++b) p[b] = w;
}

void Simulator::set_input_limbs(SignalId input,
                                const std::uint64_t* limb_words) {
  std::uint64_t* p = input_slot(input);
  std::memcpy(p, limb_words, limbs() * sizeof(std::uint64_t));
}

std::uint64_t* Simulator::input_limbs(SignalId input) {
  return input_slot(input);
}

void Simulator::settle_interpreted() {
  std::uint64_t* const values = slots_.data();
  for (SignalId id : schedule_->comb_order()) {
    const netlist::Gate& g = nl_->gate(id);
    const std::uint64_t a = values[g.fanin[0]];
    switch (g.kind) {
      case GateKind::kBuf:
        values[id] = a;
        break;
      case GateKind::kNot:
        values[id] = ~a;
        break;
      case GateKind::kAnd:
        values[id] = a & values[g.fanin[1]];
        break;
      case GateKind::kNand:
        values[id] = ~(a & values[g.fanin[1]]);
        break;
      case GateKind::kOr:
        values[id] = a | values[g.fanin[1]];
        break;
      case GateKind::kNor:
        values[id] = ~(a | values[g.fanin[1]]);
        break;
      case GateKind::kXor:
        values[id] = a ^ values[g.fanin[1]];
        break;
      case GateKind::kXnor:
        values[id] = ~(a ^ values[g.fanin[1]]);
        break;
      case GateKind::kMux: {
        const std::uint64_t sel = a;
        values[id] =
            (~sel & values[g.fanin[1]]) | (sel & values[g.fanin[2]]);
        break;
      }
      default:
        SCA_ASSERT(false, "settle: unexpected gate kind in comb order");
    }
  }
}

void Simulator::settle() {
  if (!schedule_->compiled()) {
    settle_interpreted();
    return;
  }
  switch (limbs()) {
    case 1:
      run_tape<1>(schedule_->tape(), slots_.data());
      break;
    case 4:
      run_tape<4>(schedule_->tape(), slots_.data());
      break;
    case 8:
      run_tape<8>(schedule_->tape(), slots_.data());
      break;
    default:
      SCA_ASSERT(false, "settle: unsupported limb count");
  }
}

void Simulator::clock() {
  const unsigned nlimbs = limbs();
  if (schedule_->compiled()) {
    const auto& latch = schedule_->tape().reg_latch;
    for (std::size_t i = 0; i < latch.size(); ++i)
      std::memcpy(reg_next_.data() + i * nlimbs,
                  slots_.data() + static_cast<std::size_t>(latch[i].second) * nlimbs,
                  nlimbs * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < latch.size(); ++i)
      std::memcpy(slots_.data() + static_cast<std::size_t>(latch[i].first) * nlimbs,
                  reg_next_.data() + i * nlimbs, nlimbs * sizeof(std::uint64_t));
    return;
  }
  const auto& regs = schedule_->registers();
  for (std::size_t i = 0; i < regs.size(); ++i)
    reg_next_[i] = slots_[nl_->gate(regs[i]).fanin[0]];
  for (std::size_t i = 0; i < regs.size(); ++i) slots_[regs[i]] = reg_next_[i];
}

const std::uint64_t* Simulator::value_limbs(SignalId signal) const {
  SCA_ASSERT(signal < nl_->size(), "Simulator::value: signal out of range");
  const std::uint32_t slot = schedule_->slot_of(signal);
  common::require(slot != Tape::kNoSlot,
                  "Simulator::value: signal was eliminated as dead — list it "
                  "in ScheduleOptions::observed to keep it readable");
  return slots_.data() + static_cast<std::size_t>(slot) * limbs();
}

}  // namespace sca::sim
