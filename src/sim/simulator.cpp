#include "src/sim/simulator.hpp"

#include <cstring>

#include "src/common/check.hpp"
#include "src/common/simd.hpp"

namespace sca::sim {

using netlist::GateKind;
using netlist::Netlist;
using netlist::SignalId;

Schedule::Schedule(const Netlist& nl, ScheduleOptions options)
    : nl_(&nl), lanes_(options.lanes) {
  nl.validate();
  common::require(common::valid_lane_width(lanes_),
                  "Schedule: lane width must be 64, 256, or 512");
  comb_gates_ = nl.combinational_count();
  tape_ = compile_tape(nl, options.observed);
}

Simulator::Simulator(const Netlist& nl)
    : nl_(&nl),
      owned_schedule_(std::make_shared<const Schedule>(nl)),
      schedule_(owned_schedule_.get()) {
  reset();
}

Simulator::Simulator(const Schedule& schedule)
    : nl_(&schedule.netlist()), schedule_(&schedule) {
  reset();
}

void Simulator::reset() {
  // Constants hold their value permanently.
  reset_slots(schedule_->tape(), limbs(), slots_);
  reg_next_.assign(schedule_->tape().reg_latch.size() * limbs(), 0);
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

void Simulator::settle() {
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
  const auto& latch = schedule_->tape().reg_latch;
  for (std::size_t i = 0; i < latch.size(); ++i)
    std::memcpy(reg_next_.data() + i * nlimbs,
                slots_.data() + static_cast<std::size_t>(latch[i].second) * nlimbs,
                nlimbs * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < latch.size(); ++i)
    std::memcpy(slots_.data() + static_cast<std::size_t>(latch[i].first) * nlimbs,
                reg_next_.data() + i * nlimbs, nlimbs * sizeof(std::uint64_t));
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
