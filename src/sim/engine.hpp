// Abstract netlist execution engine.
//
// Two engines implement this interface: the event-driven Simulator (the
// faithful VFIT-era reference, counts real simulation events) and the
// levelized bit-parallel CompiledSimulator (64 fault machines per machine
// word). The interface is the scalar single-machine view - writes drive all
// lanes of a bit-parallel engine in lockstep and reads report lane 0 - so
// any driver written against Engine behaves identically on either backend;
// the CompiledEquivalence suite proves that net-for-net, cycle-for-cycle.
//
// Campaigns run only on the compiled engine, 63 experiments per wave. The
// event-driven Simulator keeps the jobs only it does: the VFIT golden run
// (its event count calibrates the modeled cost), the autonomous
// instrumentation check, the prune golden trace, and the scalar
// simulator-command reference (VfitTool::runExperiment) the equivalence
// suites compare the waves against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace fades::sim {

class Engine {
 public:
  virtual ~Engine() = default;

  /// Reset state elements to their declared initial values, clear forces,
  /// zero the inputs, settle combinational logic.
  virtual void reset() = 0;

  // --- inputs / observation ----------------------------------------------
  virtual void setInput(const std::string& portName, std::uint64_t value) = 0;
  virtual std::uint64_t portValue(const std::string& outputPortName) const = 0;
  virtual bool netValue(netlist::NetId id) const = 0;
  virtual std::uint64_t busValue(const std::vector<netlist::NetId>& bus)
      const = 0;
  virtual bool flopState(netlist::FlopId id) const = 0;
  virtual std::uint64_t ramWord(netlist::RamId id, std::size_t row) const = 0;

  // --- execution ---------------------------------------------------------
  virtual void settle() = 0;
  virtual void step() = 0;
  virtual void run(std::uint64_t cycles) = 0;
  virtual std::uint64_t cycle() const = 0;

  // --- simulator commands (the VFIT injection mechanism) ------------------
  virtual void force(netlist::NetId id, bool value) = 0;
  virtual void release(netlist::NetId id) = 0;
  virtual bool isForced(netlist::NetId id) const = 0;
  virtual void depositFlop(netlist::FlopId id, bool value) = 0;
  virtual void depositRam(netlist::RamId id, std::size_t row,
                          std::uint64_t value) = 0;

  // --- activity accounting ------------------------------------------------
  /// Engine work units performed so far. For the event-driven engine this
  /// is real event activity (the VFIT cost model input); for the compiled
  /// engine it counts kernel gate slots and is NOT comparable across
  /// engines - modeled costs always come from the event-driven calibration.
  virtual std::uint64_t eventsProcessed() const = 0;
};

}  // namespace fades::sim
