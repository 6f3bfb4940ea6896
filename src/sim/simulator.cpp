#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"

namespace fades::sim {

using common::ErrorKind;
using common::require;
using netlist::GateOp;
using netlist::arity;

Simulator::Simulator(const Netlist& netlist)
    : nl_(netlist),
      eventsCounter_(obs::Registry::global().counter("sim.events")),
      stepsCounter_(obs::Registry::global().counter("sim.steps")) {
  values_.assign(nl_.netCount(), 0);
  flopState_.assign(nl_.flopCount(), 0);
  forced_.assign(nl_.netCount(), 0);
  forcedValue_.assign(nl_.netCount(), 0);
  inWorkList_.assign(nl_.gateCount(), 0);

  ram_.resize(nl_.ramCount());
  for (std::size_t r = 0; r < nl_.ramCount(); ++r) {
    ram_[r].mem.assign(nl_.ram(RamId{static_cast<std::uint32_t>(r)}).depth(),
                       0);
  }

  // Build CSR fanout lists (net -> dependent gates).
  std::vector<std::uint32_t> counts(nl_.netCount(), 0);
  for (const auto& g : nl_.gates()) {
    for (unsigned k = 0; k < arity(g.op); ++k) ++counts[g.in[k].value];
  }
  fanoutOffsets_.assign(nl_.netCount() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    fanoutOffsets_[i + 1] = fanoutOffsets_[i] + counts[i];
  }
  fanoutGates_.assign(fanoutOffsets_.back(), 0);
  std::vector<std::uint32_t> cursor(fanoutOffsets_.begin(),
                                    fanoutOffsets_.end() - 1);
  for (std::uint32_t gi = 0; gi < nl_.gateCount(); ++gi) {
    const auto& g = nl_.gates()[gi];
    for (unsigned k = 0; k < arity(g.op); ++k) {
      fanoutGates_[cursor[g.in[k].value]++] = gi;
    }
  }

  reset();
}

void Simulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(forced_.begin(), forced_.end(), 0);
  std::fill(forcedValue_.begin(), forcedValue_.end(), 0);
  cycle_ = 0;

  for (std::size_t f = 0; f < nl_.flopCount(); ++f) {
    const auto& flop = nl_.flops()[f];
    flopState_[f] = flop.init ? 1 : 0;
    values_[flop.q.value] = flopState_[f];
  }
  for (std::size_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{static_cast<std::uint32_t>(r)});
    for (std::size_t row = 0; row < ram.depth(); ++row) {
      ram_[r].mem[row] = ram.initWord(row);
    }
    ram_[r].outputLatch = 0;
    applyRamOutput(static_cast<std::uint32_t>(r));
  }

  // Schedule every gate once so constants and initial values propagate.
  workList_.clear();
  std::fill(inWorkList_.begin(), inWorkList_.end(), 0);
  for (std::uint32_t gi = 0; gi < nl_.gateCount(); ++gi) {
    workList_.push_back(gi);
    inWorkList_[gi] = 1;
  }
  settle();
}

void Simulator::setInput(const std::string& portName, std::uint64_t value) {
  const auto* port = nl_.findInput(portName);
  require(port != nullptr, ErrorKind::InvalidArgument,
          "no input port '" + portName + "'");
  for (std::size_t i = 0; i < port->nets.size(); ++i) {
    setNetValue(port->nets[i], (value >> i) & 1);
  }
}

std::uint64_t Simulator::portValue(const std::string& outputPortName) const {
  const auto* port = nl_.findOutput(outputPortName);
  require(port != nullptr, ErrorKind::InvalidArgument,
          "no output port '" + outputPortName + "'");
  return busValue(port->nets);
}

std::uint64_t Simulator::busValue(const std::vector<NetId>& bus) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (values_[bus[i].value]) v |= 1ULL << i;
  }
  return v;
}

void Simulator::setNetValue(NetId id, bool value) {
  if (forced_[id.value]) return;  // force wins until released
  if ((values_[id.value] != 0) == value) return;
  values_[id.value] = value ? 1 : 0;
  scheduleFanout(id.value);
}

void Simulator::scheduleFanout(std::uint32_t netIndex) {
  for (std::uint32_t k = fanoutOffsets_[netIndex];
       k < fanoutOffsets_[netIndex + 1]; ++k) {
    const std::uint32_t gi = fanoutGates_[k];
    if (!inWorkList_[gi]) {
      inWorkList_[gi] = 1;
      workList_.push_back(gi);
    }
  }
}

void Simulator::evaluateGate(std::uint32_t gateIndex) {
  const auto& g = nl_.gates()[gateIndex];
  const bool a = g.in[0].valid() && values_[g.in[0].value] != 0;
  const bool b = g.in[1].valid() && values_[g.in[1].value] != 0;
  const bool c = g.in[2].valid() && values_[g.in[2].value] != 0;
  ++events_;
  setNetValue(g.out, netlist::evalGate(g.op, a, b, c));
}

void Simulator::settle() {
  // The netlist is acyclic, so this terminates. Gates may be re-evaluated
  // when multiple inputs change in sequence; that re-evaluation is exactly
  // the event activity a real event-driven simulator performs.
  while (!workList_.empty()) {
    const std::uint32_t gi = workList_.back();
    workList_.pop_back();
    inWorkList_[gi] = 0;
    evaluateGate(gi);
  }
}

void Simulator::applyRamOutput(std::uint32_t ramIndex) {
  const auto& ram = nl_.ram(RamId{ramIndex});
  const std::uint64_t out = ram_[ramIndex].outputLatch;
  for (unsigned b = 0; b < ram.dataBits; ++b) {
    setNetValue(ram.dataOut[b], (out >> b) & 1);
  }
}

void Simulator::step() {
  settle();

  // Sample all sequential elements with pre-edge values, then update
  // simultaneously (two-phase, like nonblocking assignment semantics).
  std::vector<std::uint8_t> nextFlop(nl_.flopCount());
  for (std::size_t f = 0; f < nl_.flopCount(); ++f) {
    nextFlop[f] = values_[nl_.flops()[f].d.value];
  }
  struct RamNext {
    bool doWrite = false;
    std::size_t writeRow = 0;
    std::uint64_t writeValue = 0;
    std::uint64_t readValue = 0;
  };
  std::vector<RamNext> ramNext(nl_.ramCount());
  for (std::size_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{static_cast<std::uint32_t>(r)});
    const std::uint64_t addr = busValue(ram.addr);
    ramNext[r].readValue = ram_[r].mem[addr];  // read-first semantics
    if (!ram.isRom() && values_[ram.writeEnable.value]) {
      ramNext[r].doWrite = true;
      ramNext[r].writeRow = addr;
      ramNext[r].writeValue = busValue(ram.dataIn);
    }
  }

  for (std::size_t f = 0; f < nl_.flopCount(); ++f) {
    if (flopState_[f] != nextFlop[f]) {
      flopState_[f] = nextFlop[f];
      ++events_;
    }
    setNetValue(nl_.flops()[f].q, nextFlop[f] != 0);
  }
  for (std::size_t r = 0; r < nl_.ramCount(); ++r) {
    if (ramNext[r].doWrite) {
      ram_[r].mem[ramNext[r].writeRow] = ramNext[r].writeValue;
      ++events_;
    }
    ram_[r].outputLatch = ramNext[r].readValue;
    applyRamOutput(static_cast<std::uint32_t>(r));
  }

  ++cycle_;
  settle();

  stepsCounter_.inc();
  eventsCounter_.add(events_ - eventsFlushed_);
  eventsFlushed_ = events_;
}

void Simulator::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) step();
}

void Simulator::force(NetId id, bool value) {
  forced_[id.value] = 1;
  forcedValue_[id.value] = value ? 1 : 0;
  if ((values_[id.value] != 0) != value) {
    values_[id.value] = value ? 1 : 0;
    scheduleFanout(id.value);
  }
  settle();
}

void Simulator::release(NetId id) {
  if (!forced_[id.value]) return;
  forced_[id.value] = 0;
  // Recompute the driver's value for this net.
  const auto d = nl_.driverOf(id);
  bool driven = values_[id.value] != 0;
  switch (d.kind) {
    case Netlist::DriverKind::Gate: {
      const auto& g = nl_.gates()[d.index];
      const bool a = g.in[0].valid() && values_[g.in[0].value] != 0;
      const bool b = g.in[1].valid() && values_[g.in[1].value] != 0;
      const bool c = g.in[2].valid() && values_[g.in[2].value] != 0;
      driven = netlist::evalGate(g.op, a, b, c);
      ++events_;
      break;
    }
    case Netlist::DriverKind::Flop:
      driven = flopState_[d.index] != 0;
      break;
    case Netlist::DriverKind::Ram: {
      const auto& ram = nl_.ram(RamId{d.index});
      for (unsigned b = 0; b < ram.dataBits; ++b) {
        if (ram.dataOut[b] == id) {
          driven = (ram_[d.index].outputLatch >> b) & 1;
          break;
        }
      }
      break;
    }
    case Netlist::DriverKind::Input:
      // Inputs keep whatever the testbench last set; the forced value may
      // have masked it, so leave the current value in place.
      break;
    case Netlist::DriverKind::None:
      break;
  }
  if ((values_[id.value] != 0) != driven) {
    values_[id.value] = driven ? 1 : 0;
    scheduleFanout(id.value);
  }
  settle();
}

void Simulator::depositFlop(FlopId id, bool value) {
  flopState_[id.value] = value ? 1 : 0;
  ++events_;
  setNetValue(nl_.flops()[id.value].q, value);
  settle();
}

void Simulator::depositRam(RamId id, std::size_t row, std::uint64_t value) {
  ram_[id.value].mem[row] = value;
  ++events_;
}

}  // namespace fades::sim
