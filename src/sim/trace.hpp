// Golden-run liveness trace.
//
// The fault-list pruning analysis (src/prune) needs the complete fault-free
// trajectory of the workload: per cycle, the value of every net. From those
// bits it derives which flops are overwritten before their next read, which
// RAM rows are never addressed inside an injection window and which nets can
// never reach an observable point - the equivalences that collapse a
// campaign's fault list. The trace is recorded on the event-driven
// sim::Simulator, the scalar reference; one recording costs one extra
// golden run.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace fades::sim {

class Simulator;

/// Bit-packed per-cycle snapshot of every net of a golden run.
///
/// Entry c holds the settled pre-edge state of cycle c - exactly the state
/// an injector sees when it stops at injectCycle == c to apply a fault - and
/// entry cycles() (one past the workload) holds the final captured state
/// after the last clock edge.
class GoldenTrace {
 public:
  /// Run `sim` from reset for `cycles` clock edges, recording every net
  /// before each edge plus the final post-run state. Leaves the simulator
  /// at cycle `cycles` (end of workload), like any golden run.
  static GoldenTrace record(Simulator& sim, const netlist::Netlist& netlist,
                            std::uint64_t cycles);

  /// Workload length in clock edges; valid sample indices are 0..cycles().
  std::uint64_t cycles() const { return cycles_; }
  std::size_t netCount() const { return netCount_; }

  bool netAt(std::uint64_t cycle, netlist::NetId id) const {
    return (words_[cycle * wordsPerCycle_ + (id.value >> 6)] >>
            (id.value & 63u)) &
           1u;
  }

  /// LSB-first bus value at `cycle` (the Simulator::busValue convention).
  std::uint64_t busAt(std::uint64_t cycle,
                      const std::vector<netlist::NetId>& bus) const {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < bus.size(); ++b) {
      value |= static_cast<std::uint64_t>(netAt(cycle, bus[b])) << b;
    }
    return value;
  }

 private:
  std::uint64_t cycles_ = 0;
  std::size_t netCount_ = 0;
  std::size_t wordsPerCycle_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace fades::sim
