#include "sim/trace.hpp"

#include "sim/simulator.hpp"

namespace fades::sim {

GoldenTrace GoldenTrace::record(Simulator& sim,
                                const netlist::Netlist& netlist,
                                std::uint64_t cycles) {
  GoldenTrace trace;
  trace.cycles_ = cycles;
  trace.netCount_ = netlist.netCount();
  trace.wordsPerCycle_ = (trace.netCount_ + 63) / 64;
  trace.words_.assign((cycles + 1) * trace.wordsPerCycle_, 0);

  sim.reset();
  for (std::uint64_t c = 0; c <= cycles; ++c) {
    std::uint64_t* row = trace.words_.data() + c * trace.wordsPerCycle_;
    for (std::uint32_t n = 0; n < trace.netCount_; ++n) {
      if (sim.netValue(netlist::NetId{n})) row[n >> 6] |= 1ull << (n & 63u);
    }
    if (c < cycles) sim.step();
  }
  return trace;
}

}  // namespace fades::sim
