// Event-driven gate-level simulator.
//
// The paper's VFIT tool injects faults through "simulator commands" (force /
// release / deposit) while an event-driven HDL simulator executes the model.
// This is that simulator, one of the two in this module: it runs the VFIT
// golden run, whose counted gate evaluations give the baseline's CPU-time
// model from real simulation activity instead of a hard-coded constant, the
// autonomous instrumentation check, the prune golden trace, and the scalar
// simulator-command reference the bit-parallel campaign waves of
// sim::CompiledSimulator are checked against. The two simulators share no
// interface: campaigns drive the compiled one through its lane API only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"

namespace fades::sim {

using netlist::FlopId;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;

class Simulator {
 public:
  /// The netlist must outlive the simulator and must be validated.
  explicit Simulator(const Netlist& netlist);

  /// Reset flops and memories to their declared initial values, clear
  /// forces, zero the inputs, settle combinational logic.
  void reset();

  // --- inputs / observation ----------------------------------------------
  void setInput(const std::string& portName, std::uint64_t value);
  std::uint64_t portValue(const std::string& outputPortName) const;
  bool netValue(NetId id) const { return values_[id.value] != 0; }
  std::uint64_t busValue(const std::vector<NetId>& bus) const;

  bool flopState(FlopId id) const { return flopState_[id.value] != 0; }
  std::uint64_t ramWord(RamId id, std::size_t row) const {
    return ram_[id.value].mem[row];
  }

  // --- execution ------------------------------------------------------------
  /// Propagate pending combinational events to a fixpoint (delta cycles).
  void settle();
  /// One positive clock edge followed by combinational settling.
  void step();
  void run(std::uint64_t cycles);
  std::uint64_t cycle() const { return cycle_; }

  // --- simulator commands (the VFIT injection mechanism) -------------------
  /// Override a net's value regardless of its driver, until release().
  void force(NetId id, bool value);
  void release(NetId id);
  bool isForced(NetId id) const { return forced_[id.value] != 0; }
  /// Overwrite a flip-flop's stored state (bit-flip style deposit); the new
  /// value propagates immediately.
  void depositFlop(FlopId id, bool value);
  /// Overwrite one stored memory word (bit-flips into RAM contents).
  void depositRam(RamId id, std::size_t row, std::uint64_t value);

  // --- activity accounting ----------------------------------------------------
  /// Total gate evaluations + state-element updates performed so far; the
  /// VFIT cost model converts this to modeled CPU seconds.
  std::uint64_t eventsProcessed() const { return events_; }

 private:
  struct RamState {
    std::vector<std::uint64_t> mem;
    std::uint64_t outputLatch = 0;  // registered read port
  };

  void setNetValue(NetId id, bool value);
  void scheduleFanout(std::uint32_t netIndex);
  void evaluateGate(std::uint32_t gateIndex);
  void applyRamOutput(std::uint32_t ramIndex);

  const Netlist& nl_;

  std::vector<std::uint8_t> values_;       // per net
  std::vector<std::uint8_t> flopState_;    // per flop
  std::vector<RamState> ram_;              // per ram
  std::vector<std::uint8_t> forced_;       // per net
  std::vector<std::uint8_t> forcedValue_;  // per net

  const netlist::Fanout fanout_;

  std::vector<std::uint32_t> workList_;
  std::vector<std::uint8_t> inWorkList_;  // per gate

  std::uint64_t cycle_ = 0;
  std::uint64_t events_ = 0;
  // Registry mirrors (sim.events / sim.steps): the event count is flushed
  // as a delta once per step so the gate-evaluation inner loop stays free
  // of atomics.
  std::uint64_t eventsFlushed_ = 0;
  obs::Counter& eventsCounter_;
  obs::Counter& stepsCounter_;
};

}  // namespace fades::sim
