#include "sim/compiled.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fades::sim {

using common::ErrorKind;
using common::require;
using netlist::GateOp;

CompiledSimulator::CompiledSimulator(const Netlist& netlist) : nl_(netlist) {
  steps_.reserve(nl_.gateCount());
  for (const netlist::GateId g : nl_.topoOrder()) {
    const auto& gate = nl_.gates()[g.value];
    steps_.push_back(Step{gate.op,
                          gate.in[0].valid() ? gate.in[0].value : kNoNet,
                          gate.in[1].valid() ? gate.in[1].value : kNoNet,
                          gate.in[2].valid() ? gate.in[2].value : kNoNet,
                          gate.out.value});
  }

  values_.assign(nl_.netCount(), 0);
  driven_.assign(nl_.netCount(), 0);
  flopW_.assign(nl_.flopCount(), 0);
  xorMask_.assign(nl_.netCount(), 0);
  forceMask_.assign(nl_.netCount(), 0);
  forceVal_.assign(nl_.netCount(), 0);
  perturbed_.assign(nl_.netCount(), 0);
  nextFlop_.assign(nl_.flopCount(), 0);

  ramBits_.resize(nl_.ramCount());
  ramLatch_.resize(nl_.ramCount());
  ramScratch_.resize(nl_.ramCount());
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    ramBits_[r].assign(ram.depth() * ram.dataBits, 0);
    ramLatch_[r].assign(ram.dataBits, 0);
    ramScratch_[r].read.assign(ram.dataBits, 0);
    ramScratch_[r].din.assign(ram.dataBits, 0);
    ramScratch_[r].rows.assign(kLanes, 0);
  }

  reset();
}

void CompiledSimulator::markPerturbed(std::uint32_t net) {
  // First perturbation of a net: snapshot the driven word, which until now
  // was identical to the visible value.
  if (!perturbed_[net]) {
    perturbed_[net] = 1;
    driven_[net] = values_[net];
  }
}

CompiledSimulator::Word CompiledSimulator::blend(std::uint32_t net,
                                                 Word driven) const {
  const Word f = forceMask_[net];
  return ((driven ^ xorMask_[net]) & ~f) | (forceVal_[net] & f);
}

void CompiledSimulator::writeNet(std::uint32_t net, Word driven) {
  if (perturbed_[net]) {
    driven_[net] = driven;
    driven = blend(net, driven);
  }
  values_[net] = driven;
}

void CompiledSimulator::reblend(std::uint32_t net) {
  if ((xorMask_[net] | forceMask_[net]) == 0) {
    perturbed_[net] = 0;
    values_[net] = driven_[net];
  } else {
    values_[net] = blend(net, driven_[net]);
  }
  dirty_ = true;
}

void CompiledSimulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(driven_.begin(), driven_.end(), 0);
  std::fill(xorMask_.begin(), xorMask_.end(), 0);
  std::fill(forceMask_.begin(), forceMask_.end(), 0);
  std::fill(forceVal_.begin(), forceVal_.end(), 0);
  std::fill(perturbed_.begin(), perturbed_.end(), 0);
  cycle_ = 0;

  for (std::uint32_t f = 0; f < nl_.flopCount(); ++f) {
    const auto& flop = nl_.flops()[f];
    flopW_[f] = broadcast(flop.init);
    values_[flop.q.value] = flopW_[f];
  }
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    for (std::size_t row = 0; row < ram.depth(); ++row) {
      const std::uint64_t init = ram.initWord(row);
      for (unsigned b = 0; b < ram.dataBits; ++b) {
        ramBits_[r][row * ram.dataBits + b] = broadcast((init >> b) & 1);
      }
    }
    std::fill(ramLatch_[r].begin(), ramLatch_[r].end(), Word{0});
    applyRamOutput(r);
  }
  dirty_ = true;
  settle();
}

void CompiledSimulator::setInput(const std::string& portName,
                                 std::uint64_t value) {
  const auto* port = nl_.findInput(portName);
  require(port != nullptr, ErrorKind::InvalidArgument,
          "no input port '" + portName + "'");
  for (std::size_t i = 0; i < port->nets.size(); ++i) {
    writeNet(port->nets[i].value, broadcast((value >> i) & 1));
  }
  dirty_ = true;
}

std::uint64_t CompiledSimulator::portValueLane(
    const std::string& outputPortName, unsigned lane) const {
  const auto* port = nl_.findOutput(outputPortName);
  require(port != nullptr, ErrorKind::InvalidArgument,
          "no output port '" + outputPortName + "'");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < port->nets.size(); ++i) {
    v |= ((values_[port->nets[i].value] >> lane) & 1) << i;
  }
  return v;
}

std::uint64_t CompiledSimulator::ramWordLane(RamId id, std::size_t row,
                                             unsigned lane) const {
  const auto& ram = nl_.ram(id);
  std::uint64_t v = 0;
  for (unsigned b = 0; b < ram.dataBits; ++b) {
    v |= ((ramBits_[id.value][row * ram.dataBits + b] >> lane) & 1ULL) << b;
  }
  return v;
}

void CompiledSimulator::settle() {
  // The straight-line kernel: every gate once, in topological order. Operand
  // slot kNoNet reads the hardwired zero (values_ never has that index;
  // the ternary below folds it to 0 like the event-driven engine does).
  for (const Step& s : steps_) {
    const Word a = s.in0 != kNoNet ? values_[s.in0] : 0;
    const Word b = s.in1 != kNoNet ? values_[s.in1] : 0;
    Word w = 0;
    switch (s.op) {
      case GateOp::Const0: w = 0; break;
      case GateOp::Const1: w = ~Word{0}; break;
      case GateOp::Buf:    w = a; break;
      case GateOp::Not:    w = ~a; break;
      case GateOp::And:    w = a & b; break;
      case GateOp::Or:     w = a | b; break;
      case GateOp::Xor:    w = a ^ b; break;
      case GateOp::Nand:   w = ~(a & b); break;
      case GateOp::Nor:    w = ~(a | b); break;
      case GateOp::Xnor:   w = ~(a ^ b); break;
      case GateOp::Mux: {
        const Word c = s.in2 != kNoNet ? values_[s.in2] : 0;
        w = (c & b) | (~c & a);
        break;
      }
    }
    if (perturbed_[s.out]) {
      driven_[s.out] = w;
      w = blend(s.out, w);
    }
    values_[s.out] = w;
  }
  dirty_ = false;
}

void CompiledSimulator::applyRamOutput(std::uint32_t ramIndex) {
  const auto& ram = nl_.ram(RamId{ramIndex});
  for (unsigned b = 0; b < ram.dataBits; ++b) {
    writeNet(ram.dataOut[b].value, ramLatch_[ramIndex][b]);
  }
}

void CompiledSimulator::step() {
  if (dirty_) settle();

  // Sample phase: latch every flop D and every RAM port with pre-edge
  // values (two-phase / nonblocking semantics, like the event-driven
  // engine). Nothing is committed until all sampling is done, because RAM
  // address or data pins may be flop Q nets.
  for (std::uint32_t f = 0; f < nl_.flopCount(); ++f) {
    nextFlop_[f] = values_[nl_.flops()[f].d.value];
  }
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    RamScratch& sc = ramScratch_[r];
    const unsigned D = ram.dataBits;
    // Lane-divergence test: the address is uniform when every address-bit
    // word is all-zeros or all-ones.
    Word diverge = 0;
    for (unsigned i = 0; i < ram.addrBits; ++i) {
      const Word w = values_[ram.addr[i].value];
      diverge |= w ^ broadcast(w & 1);
    }
    sc.uniform = diverge == 0;
    sc.we = ram.isRom() ? 0 : values_[ram.writeEnable.value];
    for (unsigned b = 0; b < D; ++b) {
      sc.din[b] = ram.isRom() ? 0 : values_[ram.dataIn[b].value];
    }
    if (sc.uniform) {
      sc.row = 0;
      for (unsigned i = 0; i < ram.addrBits; ++i) {
        sc.row |= static_cast<std::uint32_t>(values_[ram.addr[i].value] & 1)
                  << i;
      }
      for (unsigned b = 0; b < D; ++b) {
        sc.read[b] = ramBits_[r][sc.row * D + b];  // read-first
      }
    } else {
      // Transpose the per-lane addresses, then gather each lane's read
      // bits from its own row. Reads complete before any write below.
      for (unsigned l = 0; l < kLanes; ++l) {
        std::uint32_t row = 0;
        for (unsigned i = 0; i < ram.addrBits; ++i) {
          row |= static_cast<std::uint32_t>(
                     (values_[ram.addr[i].value] >> l) & 1)
                 << i;
        }
        sc.rows[l] = row;
      }
      for (unsigned b = 0; b < D; ++b) {
        Word w = 0;
        for (unsigned l = 0; l < kLanes; ++l) {
          w |= ((ramBits_[r][sc.rows[l] * D + b] >> l) & 1ULL) << l;
        }
        sc.read[b] = w;
      }
    }
  }

  // Commit phase: flop state, then RAM writes and the registered read port.
  for (std::uint32_t f = 0; f < nl_.flopCount(); ++f) {
    flopW_[f] = nextFlop_[f];
    writeNet(nl_.flops()[f].q.value, flopW_[f]);
  }
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    RamScratch& sc = ramScratch_[r];
    const unsigned D = ram.dataBits;
    if (sc.we != 0) {
      if (sc.uniform) {
        for (unsigned b = 0; b < D; ++b) {
          Word& cell = ramBits_[r][sc.row * D + b];
          cell = (cell & ~sc.we) | (sc.din[b] & sc.we);
        }
      } else {
        // Divergent write: each enabled lane updates only its own bit of
        // its own row, so lanes never disturb one another.
        for (unsigned l = 0; l < kLanes; ++l) {
          if (((sc.we >> l) & 1) == 0) continue;
          for (unsigned b = 0; b < D; ++b) {
            Word& cell = ramBits_[r][sc.rows[l] * D + b];
            cell = (cell & ~(Word{1} << l)) |
                   (((sc.din[b] >> l) & 1ULL) << l);
          }
        }
      }
    }
    ramLatch_[r] = sc.read;
    applyRamOutput(r);
  }

  ++cycle_;
  settle();
}

void CompiledSimulator::depositFlopLanes(FlopId id, Word laneMask,
                                         Word laneValues) {
  flopW_[id.value] =
      (flopW_[id.value] & ~laneMask) | (laneValues & laneMask);
  writeNet(nl_.flops()[id.value].q.value, flopW_[id.value]);
  dirty_ = true;
}

void CompiledSimulator::xorFlopLanes(FlopId id, Word laneMask) {
  flopW_[id.value] ^= laneMask;
  writeNet(nl_.flops()[id.value].q.value, flopW_[id.value]);
  dirty_ = true;
}

void CompiledSimulator::xorRamBitLanes(RamId id, std::size_t row,
                                       unsigned bit, Word laneMask) {
  const auto& ram = nl_.ram(id);
  ramBits_[id.value][row * ram.dataBits + bit] ^= laneMask;
}

void CompiledSimulator::xorNetLanes(NetId id, Word laneMask) {
  markPerturbed(id.value);
  xorMask_[id.value] |= laneMask;
  reblend(id.value);
}

void CompiledSimulator::clearXorNetLanes(NetId id, Word laneMask) {
  if (!perturbed_[id.value]) return;
  xorMask_[id.value] &= ~laneMask;
  reblend(id.value);
}

void CompiledSimulator::forceLanes(NetId id, Word laneMask, Word laneValues) {
  markPerturbed(id.value);
  forceMask_[id.value] |= laneMask;
  forceVal_[id.value] =
      (forceVal_[id.value] & ~laneMask) | (laneValues & laneMask);
  reblend(id.value);
}

void CompiledSimulator::releaseLanes(NetId id, Word laneMask) {
  if (!perturbed_[id.value]) return;
  // Event-driven semantics for undriven/input nets: a released input keeps
  // whatever value the force left in place (there is no driver to restore
  // from), so adopt the visible value as the new driven word there.
  const auto d = nl_.driverOf(id);
  if (d.kind == Netlist::DriverKind::Input ||
      d.kind == Netlist::DriverKind::None) {
    const Word released = forceMask_[id.value] & laneMask;
    driven_[id.value] =
        (driven_[id.value] & ~released) | (values_[id.value] & released);
  }
  forceMask_[id.value] &= ~laneMask;
  forceVal_[id.value] &= ~laneMask;
  reblend(id.value);
}

}  // namespace fades::sim
