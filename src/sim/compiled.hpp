// Bit-parallel compiled simulator.
//
// Every net carries a 64-bit word: bit L is the net's value in machine
// (lane) L. One straight-line pass over the gates in Netlist::topoOrder()
// evaluates 64 independent simulations at once - the classic fast
// fault-grading layout (Lopez-Ongil et al.'s autonomous emulation reaches
// its speedups the same way: amortize the model evaluation across many
// concurrent fault machines). Lane 0 is reserved for the golden machine;
// lanes 1-63 host faulty machines perturbed through per-lane injection
// masks on gate outputs (pulse inversion / indetermination force), flop
// state and RAM cells.
//
// The lane API below is the whole interface: every VFIT and autonomous
// campaign runs through it, 63 experiments packed into one pass. The
// event-driven sim::Simulator is the scalar reference; the
// CompiledEquivalence suite drives both through the same fault commands
// (all lanes at once here) and proves them identical per cycle and per net.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace fades::sim {

using netlist::FlopId;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;

class CompiledSimulator {
 public:
  /// Lanes per pass: one golden + 63 fault machines.
  static constexpr unsigned kLanes = 64;
  using Word = std::uint64_t;

  /// The netlist must outlive the simulator and must be validated
  /// (topoOrder() re-checks acyclicity and raises NetlistError naming the
  /// nets on a cycle otherwise).
  explicit CompiledSimulator(const Netlist& netlist);

  // --- execution (all lanes in lockstep) ----------------------------------
  /// Reset every lane to the declared initial state, clear all masks, zero
  /// the inputs, settle combinational logic.
  void reset();
  /// Drive an input port with the same value in every lane.
  void setInput(const std::string& portName, std::uint64_t value);
  /// One pass over the straight-line kernel.
  void settle();
  /// One positive clock edge in every lane, followed by settle().
  void step();
  std::uint64_t cycle() const { return cycle_; }

  // --- lane API (per-bit injection masks) --------------------------------
  // `laneMask` selects the lanes an operation touches; bit 0 is the golden
  // lane and is never set by campaign code (asserted in the wave runner).
  // Reads do not settle: call settle() before reading nets downstream of
  // an operation (step() settles first on its own).

  /// Deposit per-lane flop state: lane L of `id` becomes bit L of
  /// `laneValues` wherever `laneMask` selects it; the new state propagates
  /// to the Q net immediately (event-driven depositFlop semantics).
  void depositFlopLanes(FlopId id, Word laneMask, Word laneValues);
  /// Flip flop state in the selected lanes (bit-flip deposit of !state).
  void xorFlopLanes(FlopId id, Word laneMask);
  /// Flip one stored RAM bit in the selected lanes. Does not touch the
  /// registered read port, matching the event-driven depositRam.
  void xorRamBitLanes(RamId id, std::size_t row, unsigned bit, Word laneMask);
  /// Persistent inversion mask on a net: selected lanes see the complement
  /// of the driven value until cleared. Equivalent to VFIT's per-cycle
  /// release + force(!value) pulse loop (the observable points - outputs,
  /// flop D pins, RAM ports - always sample a settled complement).
  void xorNetLanes(NetId id, Word laneMask);
  void clearXorNetLanes(NetId id, Word laneMask);
  /// Per-lane force: selected lanes of `id` are pinned to the matching bits
  /// of `laneValues` regardless of the driver, until releaseLanes.
  void forceLanes(NetId id, Word laneMask, Word laneValues);
  void releaseLanes(NetId id, Word laneMask);

  // --- lane observation ---------------------------------------------------
  Word netWord(NetId id) const { return values_[id.value]; }
  Word flopWord(FlopId id) const { return flopW_[id.value]; }
  bool flopStateLane(FlopId id, unsigned lane) const {
    return (flopW_[id.value] >> lane) & 1;
  }
  std::uint64_t ramWordLane(RamId id, std::size_t row, unsigned lane) const;
  std::uint64_t portValueLane(const std::string& outputPortName,
                              unsigned lane) const;

 private:
  // Straight-line kernel step: one gate with pre-resolved operand slots.
  // kNoNet operands read the hardwired zero word (matches the event-driven
  // engine's treatment of invalid input ids).
  struct Step {
    netlist::GateOp op;
    std::uint32_t in0, in1, in2;
    std::uint32_t out;
  };
  static constexpr std::uint32_t kNoNet = 0xffffffffu;

  /// Perturbation blend: inversion mask applies to the driven word, force
  /// overrides everything (the event-driven precedence).
  Word blend(std::uint32_t net, Word driven) const;
  /// Store a freshly driven word, routing it through blend() when the net
  /// carries any perturbation (and keeping driven_ current for re-blends).
  void writeNet(std::uint32_t net, Word driven);
  void markPerturbed(std::uint32_t net);
  /// Recompute the visible value from the remembered driven word after a
  /// mask change; drops the perturbed flag when no mask remains.
  void reblend(std::uint32_t net);
  void applyRamOutput(std::uint32_t ramIndex);
  Word broadcast(bool value) const { return value ? ~Word{0} : Word{0}; }

  const Netlist& nl_;
  std::vector<Step> steps_;

  std::vector<Word> values_;     // per net, one bit per lane
  std::vector<Word> driven_;     // per net: pre-blend value (perturbed nets)
  std::vector<Word> flopW_;      // per flop
  // Per-RAM cell storage, one word per (row, data bit): lane L's contents
  // of bit b of row r sit in bit L of ramBits_[ram][r * dataBits + b].
  std::vector<std::vector<Word>> ramBits_;
  std::vector<std::vector<Word>> ramLatch_;  // registered read port, per bit

  std::vector<Word> xorMask_;    // per net: lanes seeing the complement
  std::vector<Word> forceMask_;  // per net: lanes pinned by force
  std::vector<Word> forceVal_;   // per net: pinned values
  std::vector<std::uint8_t> perturbed_;  // per net: any mask nonzero

  // Scratch for step()'s sample phase, kept per RAM so the commit phase
  // can consume it after all sampling finished.
  struct RamScratch {
    std::vector<Word> read;           // per data bit: read-first values
    std::vector<Word> din;            // per data bit: write data
    std::vector<std::uint32_t> rows;  // per lane: addressed row (divergent)
    Word we = 0;
    bool uniform = true;
    std::uint32_t row = 0;  // single row when uniform
  };
  std::vector<Word> nextFlop_;
  std::vector<RamScratch> ramScratch_;

  bool dirty_ = true;   // combinational state needs a settle pass
  std::uint64_t cycle_ = 0;
};

}  // namespace fades::sim
