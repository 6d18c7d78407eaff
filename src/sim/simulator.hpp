// Cycle-accurate, wide-lane bit-parallel netlist simulator.
//
// Each signal carries one word of W = 64, 256 or 512 simulation lanes (lane
// L = bit L % 64 of limb L / 64), so one pass over the logic advances W
// independent simulations at once — the PROLEAD trick, widened to SIMD
// words. Schedule construction compiles the netlist once to a flat op tape
// (sim/tape.hpp); settle() runs that tape.
//
// Per-cycle protocol (matching the robust probing model's view of time):
//   1. set_input(...) for every primary input          (cycle t values)
//   2. settle()   — combinational evaluation            (glitches resolve)
//   3. value(s)   — read any signal: registers show their *current* state
//                   (latched at the end of cycle t-1), combinational signals
//                   show their settled cycle-t value
//   4. clock()    — registers latch their D inputs; state becomes cycle t+1
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/netlist/ir.hpp"
#include "src/sim/tape.hpp"

namespace sca::sim {

struct ScheduleOptions {
  /// Simulation lanes per signal: 64, 256, or 512 (limbs 1, 4, 8).
  unsigned lanes = 64;
  /// Signals whose settled values must stay readable through value() —
  /// everything outside their cone (and the register state cones) is
  /// eliminated from the tape. Empty = every signal is observable
  /// (no dead-gate elimination), the right default for interactive use.
  std::vector<netlist::SignalId> observed;
};

/// The netlist-derived evaluation plan (compiled tape and lane width).
/// Immutable after construction, so one Schedule can back any number of
/// concurrently running Simulators — the parallel campaign builds it once
/// and hands a const reference to every worker.
class Schedule {
 public:
  /// Fully observable 64-lane schedule. The netlist must be validated and
  /// outlive the schedule.
  explicit Schedule(const netlist::Netlist& nl) : Schedule(nl, {}) {}
  Schedule(const netlist::Netlist& nl, ScheduleOptions options);

  const netlist::Netlist& netlist() const { return *nl_; }

  /// Combinational gate count of the netlist — the work of one settle()
  /// pass without dead-gate elimination (x lanes). The tape may run fewer
  /// (live_gates).
  std::size_t comb_gates() const { return comb_gates_; }

  unsigned lanes() const { return lanes_; }
  unsigned limbs() const { return lanes_ / 64; }
  const Tape& tape() const { return tape_; }

  /// Value slot of a signal, or Tape::kNoSlot if dead-gate elimination
  /// removed it.
  std::uint32_t slot_of(netlist::SignalId id) const {
    return tape_.slot_of[id];
  }

  // Kernel statistics.
  std::size_t live_gates() const { return tape_.live_gates; }
  std::size_t levels() const { return tape_.levels; }
  std::size_t tape_ops() const { return tape_.ops.size(); }

 private:
  const netlist::Netlist* nl_;
  unsigned lanes_ = 64;
  std::size_t comb_gates_ = 0;
  Tape tape_;
};

class Simulator {
 public:
  /// Prepares evaluation structures (64 lanes, fully observable).
  /// The netlist must be validated and must outlive the simulator.
  explicit Simulator(const netlist::Netlist& nl);

  /// Shares a prepared schedule (and its netlist) instead of re-deriving
  /// it; the schedule must outlive the simulator. This is the cheap
  /// constructor the per-thread simulators of a parallel campaign use.
  explicit Simulator(const Schedule& schedule);

  unsigned lanes() const { return schedule_->lanes(); }
  unsigned limbs() const { return schedule_->limbs(); }

  /// Clears register state and input values (all lanes 0).
  void reset();

  /// Sets the first 64 lanes of a primary input; lanes >= 64 are cleared.
  void set_input(netlist::SignalId input, std::uint64_t lanes);

  /// Sets one input in all lanes (all limbs) to the same bit.
  void set_input_all_lanes(netlist::SignalId input, bool v);

  /// Sets every limb of a primary input (limbs() words at `limb_words`).
  void set_input_limbs(netlist::SignalId input, const std::uint64_t* limb_words);

  /// Mutable limb array of a primary input — the zero-copy feed path of the
  /// wide campaign loop. limbs() words.
  std::uint64_t* input_limbs(netlist::SignalId input);

  /// Evaluates all combinational gates (one run of the tape).
  void settle();

  /// Latches every register's D input; call after settle().
  void clock();

  /// settle() + clock() in one call.
  void step() {
    settle();
    clock();
  }

  /// First 64 lanes of any observable signal (see protocol above). Throws
  /// if dead-gate elimination removed the signal — add it to
  /// ScheduleOptions::observed to keep it readable.
  std::uint64_t value(netlist::SignalId signal) const {
    return value_limbs(signal)[0];
  }

  /// All limbs() lane words of an observable signal.
  const std::uint64_t* value_limbs(netlist::SignalId signal) const;

  /// Value of a signal in one lane (lane < lanes()), as 0/1.
  bool value_in_lane(netlist::SignalId signal, unsigned lane) const {
    return (value_limbs(signal)[lane / 64] >> (lane % 64)) & 1u;
  }

  const netlist::Netlist& netlist() const { return *nl_; }
  const Schedule& schedule() const { return *schedule_; }

 private:
  std::uint64_t* input_slot(netlist::SignalId input);

  const netlist::Netlist* nl_;
  std::shared_ptr<const Schedule> owned_schedule_;  // only for the nl ctor
  const Schedule* schedule_;
  std::vector<std::uint64_t> slots_;     // slot i at [i * limbs, (i+1) * limbs)
  std::vector<std::uint64_t> reg_next_;  // clock() double buffer
};

}  // namespace sca::sim
