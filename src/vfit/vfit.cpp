#include "vfit/vfit.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fades::vfit {

using common::ErrorKind;
using common::raise;
using common::require;
using common::Rng;

namespace {

constexpr const char* kNoDelay =
    "VFIT cannot inject delay faults (no generic delay clauses)";

}  // namespace

ObservedBits observedLayout(const Netlist& netlist,
                            const std::vector<std::string>& ports) {
  ObservedBits bits;
  for (std::size_t k = 0; k < ports.size(); ++k) {
    const auto* port = netlist.findOutput(ports[k]);
    require(port != nullptr, ErrorKind::InvalidArgument,
            "no output port '" + ports[k] + "'");
    for (std::size_t j = 0; j < port->nets.size(); ++j) {
      bits.emplace_back(port->nets[j], campaign::observedBit(ports[k], k, j));
    }
  }
  return bits;
}

std::uint64_t outputWord(const sim::Simulator& sim, const ObservedBits& bits) {
  std::uint64_t w = 0;
  for (const auto& [net, pos] : bits) {
    if (sim.netValue(net)) w |= std::uint64_t{1} << pos;
  }
  return w;
}

VfitTool::VfitTool(const Netlist& netlist, std::uint64_t runCycles,
                   VfitOptions options)
    : nl_(netlist),
      runCycles_(runCycles),
      opt_(std::move(options)),
      sim_(nl_),
      csim_(nl_),
      observed_(observedLayout(nl_, opt_.observedOutputs)),
      ctrCommands_(obs::Registry::global().counter(opt_.metricsPrefix +
                                                   ".commands")),
      ctrExperiments_(obs::Registry::global().counter(opt_.metricsPrefix +
                                                      ".experiments")),
      ctrWaves_(
          obs::Registry::global().counter(opt_.metricsPrefix + ".waves")) {
  // Golden run: trace, final state, event count. On the event-driven
  // engine - it is the cost-model calibration (real event counts) and the
  // reference every wave's golden lane is checked against.
  sim_.reset();
  const auto eventsBefore = sim_.eventsProcessed();
  golden_.outputs.reserve(runCycles_);
  for (std::uint64_t c = 0; c < runCycles_; ++c) {
    golden_.outputs.push_back(outputWord(sim_, observed_));
    sim_.step();
  }
  captureFinalState(golden_);
  goldenEvents_ = sim_.eventsProcessed() - eventsBefore;
  goldenSeconds_ = static_cast<double>(goldenEvents_) * kSecondsPerEvent;
}

void VfitTool::captureFinalState(Observation& obs) const {
  obs.finalFlops.clear();
  obs.finalFlops.reserve(nl_.flopCount());
  for (std::uint32_t f = 0; f < nl_.flopCount(); ++f) {
    obs.finalFlops.push_back(sim_.flopState(FlopId{f}) ? 1 : 0);
  }
  obs.finalMemory.clear();
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    for (std::size_t row = 0; row < ram.depth(); ++row) {
      obs.finalMemory.push_back(sim_.ramWord(RamId{r}, row));
    }
  }
}

std::vector<FlopId> flopTargets(const Netlist& nl, Unit unit) {
  std::vector<FlopId> out;
  for (std::uint32_t f = 0; f < nl.flopCount(); ++f) {
    if (unit == Unit::None || nl.flops()[f].unit == unit) {
      out.push_back(FlopId{f});
    }
  }
  return out;
}

std::vector<NetId> signalTargets(const Netlist& nl, Unit unit) {
  // HDL-level signals: nets with a name, driven by combinational logic.
  std::vector<NetId> out;
  for (const auto& g : nl.gates()) {
    if (g.op == netlist::GateOp::Const0 || g.op == netlist::GateOp::Const1) {
      continue;
    }
    if (unit != Unit::None && g.unit != unit) continue;
    if (!nl.netName(g.out).empty()) out.push_back(g.out);
  }
  return out;
}

std::vector<RamId> ramTargets(const Netlist& nl) {
  std::vector<RamId> out;
  for (std::uint32_t r = 0; r < nl.ramCount(); ++r) {
    if (!nl.ram(RamId{r}).isRom()) out.push_back(RamId{r});
  }
  return out;
}

Outcome VfitTool::runExperiment(FaultModel model, TargetClass targets,
                                std::uint32_t targetIndex,
                                std::uint64_t injectCycle,
                                double durationCycles, Rng& rng,
                                double* modeledSeconds,
                                unsigned* commandsOut) {
  require(supports(model), ErrorKind::InvalidArgument, kNoDelay);
  require(injectCycle < runCycles_, ErrorKind::InvalidArgument,
          "injection instant beyond workload");

  unsigned commands = 0;

  // Replay the fault-free prefix from reset.
  sim_.reset();
  sim_.run(injectCycle);

  // Faulty trace: the pre-injection prefix equals the golden trace by
  // determinism; everything from the injection instant on is observed live,
  // including the cycles stepped while the fault is active.
  Observation faulty;
  faulty.outputs.assign(golden_.outputs.begin(),
                        golden_.outputs.begin() +
                            static_cast<std::ptrdiff_t>(injectCycle));
  auto stepObserved = [&] {
    faulty.outputs.push_back(outputWord(sim_, observed_));
    sim_.step();
  };

  // Sub-cycle faults hit a sampling edge with probability = duration.
  std::uint64_t effectiveCycles;
  if (durationCycles < 1.0) {
    effectiveCycles = rng.uniform01() < durationCycles ? 1 : 0;
  } else {
    effectiveCycles = static_cast<std::uint64_t>(durationCycles + 0.5);
  }

  switch (model) {
    case FaultModel::BitFlip: {
      if (targets == TargetClass::SequentialFF) {
        const FlopId f{targetIndex};
        sim_.depositFlop(f, !sim_.flopState(f));
        ++commands;
      } else {
        // Memory bit-flip: targetIndex encodes ram<<24 | row<<8 | bit.
        const RamId ram{targetIndex >> 24};
        const std::size_t row = (targetIndex >> 8) & 0xFFFF;
        const unsigned bit = targetIndex & 0xFF;
        sim_.depositRam(ram, row, sim_.ramWord(ram, row) ^ (1ULL << bit));
        ++commands;
      }
      break;
    }
    case FaultModel::Pulse: {
      const NetId net{targetIndex};
      // Invert the driven value across the active window, re-forcing every
      // cycle so the inversion tracks the (changing) fault-free value.
      for (std::uint64_t k = 0;
           k < effectiveCycles && sim_.cycle() < runCycles_; ++k) {
        sim_.release(net);
        ++commands;
        sim_.force(net, !sim_.netValue(net));
        ++commands;
        stepObserved();
      }
      sim_.release(net);
      ++commands;
      break;
    }
    case FaultModel::Indetermination: {
      const bool value = rng.coin();
      if (targets == TargetClass::SequentialFF) {
        const FlopId f{targetIndex};
        for (std::uint64_t k = 0;
             k < effectiveCycles && sim_.cycle() < runCycles_; ++k) {
          sim_.depositFlop(f, value);
          ++commands;
          stepObserved();
        }
      } else {
        const NetId net{targetIndex};
        for (std::uint64_t k = 0;
             k < effectiveCycles && sim_.cycle() < runCycles_; ++k) {
          sim_.force(net, value);
          ++commands;
          stepObserved();
        }
        sim_.release(net);
        ++commands;
      }
      break;
    }
    case FaultModel::Delay:
      raise(ErrorKind::InvalidArgument, kNoDelay);
  }

  // Run to completion, observing outputs.
  while (sim_.cycle() < runCycles_) stepObserved();
  captureFinalState(faulty);

  ctrCommands_.add(commands);
  ctrExperiments_.inc();

  if (modeledSeconds != nullptr) {
    *modeledSeconds = kSecondsFixedPerExperiment + goldenSeconds_ +
                      commands * kSecondsPerCommand;
  }
  if (commandsOut != nullptr) *commandsOut = commands;
  return campaign::classify(golden_, faulty);
}

std::vector<std::uint32_t> targetPool(const Netlist& nl,
                                      const CampaignSpec& spec) {
  const auto unit = static_cast<Unit>(spec.unit);

  // Enumerate targets up front (the fault-location process).
  std::vector<std::uint32_t> targets = spec.targetPool;
  if (targets.empty()) {
    switch (spec.targets) {
    case TargetClass::SequentialFF:
      for (auto f : flopTargets(nl, unit)) targets.push_back(f.value);
      break;
    case TargetClass::MemoryBlockBit: {
      for (auto r : ramTargets(nl)) {
        const auto& ram = nl.ram(r);
        // Encode every stored bit as a target.
        for (std::size_t row = 0; row < ram.depth(); ++row) {
          for (unsigned bit = 0; bit < ram.dataBits; ++bit) {
            targets.push_back((r.value << 24) |
                              (static_cast<std::uint32_t>(row) << 8) | bit);
          }
        }
      }
      break;
    }
    case TargetClass::CombinationalLut:
    case TargetClass::CbInputLine:
    case TargetClass::CombinationalLine:
      for (auto n : signalTargets(nl, unit)) targets.push_back(n.value);
      break;
    case TargetClass::SequentialLine:
      for (auto f : flopTargets(nl, unit)) {
        targets.push_back(nl.flops()[f.value].q.value);
      }
      break;
  }
  }
  require(!targets.empty(), ErrorKind::InjectionError,
          "no VFIT targets in the selected unit");
  return targets;
}

Unit VfitTool::targetUnit(const CampaignSpec& spec,
                          std::uint32_t target) const {
  // Component attribution for records: resolve a target back to the unit
  // annotation on its netlist element (flop, ram, or the gate driving the
  // faulted signal), mirroring FadesTool::targetUnit at the HDL level.
  switch (spec.targets) {
    case TargetClass::SequentialFF:
      return nl_.flops()[target].unit;
    case TargetClass::MemoryBlockBit:
      return nl_.ram(RamId{target >> 24}).unit;
    case TargetClass::SequentialLine:
      for (const auto& f : nl_.flops()) {
        if (f.q.value == target) return f.unit;
      }
      return Unit::None;
    case TargetClass::CombinationalLut:
    case TargetClass::CbInputLine:
    case TargetClass::CombinationalLine:
      for (const auto& g : nl_.gates()) {
        if (g.out.value == target) return g.unit;
      }
      return Unit::None;
  }
  return Unit::None;
}

VfitTool::LanePlan VfitTool::planExperiment(const CampaignSpec& spec,
                                            std::span<const std::uint32_t> pool,
                                            unsigned index) const {
  // The scalar reference's draw order exactly: the campaign draw (FADES
  // draws the same one, so identical specs over identical pools fault the
  // same sites in both tools), then the edge rule and the indetermination
  // value from the same stream.
  campaign::ExperimentDraw draw =
      campaign::drawExperiment(spec, pool, runCycles_, index);
  LanePlan p{draw,
             std::min(campaign::activeCycles(draw.duration, draw.rng),
                      runCycles_ - draw.injectCycle),
             /*commands=*/0, /*value=*/false};

  switch (spec.model) {
    case FaultModel::BitFlip:
      p.commands = 1;
      break;
    case FaultModel::Pulse:
      // release + force per active cycle, final release.
      p.commands = static_cast<unsigned>(2 * p.window + 1);
      break;
    case FaultModel::Indetermination: {
      p.value = draw.rng.coin();
      // Signals pay a trailing release; deposits do not.
      p.commands = static_cast<unsigned>(
          spec.targets == TargetClass::SequentialFF ? p.window
                                                    : p.window + 1);
      break;
    }
    case FaultModel::Delay:
      raise(ErrorKind::InvalidArgument, kNoDelay);
  }
  return p;
}

campaign::ExperimentOutcome VfitTool::makeOutcome(const CampaignSpec& spec,
                                                  unsigned index,
                                                  const LanePlan& plan,
                                                  Outcome outcome) const {
  campaign::ExperimentOutcome out;
  out.index = index;
  out.outcome = outcome;
  // Same expression (and operand order) as runExperiment's modeledSeconds,
  // so the wave and the scalar reference agree bit for bit.
  out.modeledSeconds = kSecondsFixedPerExperiment + goldenSeconds_ +
                       plan.commands * kSecondsPerCommand;
  out.configSeconds = plan.commands * kSecondsPerCommand;
  out.workloadSeconds = goldenSeconds_;
  out.hostSeconds = kSecondsFixedPerExperiment;
  if (opt_.keepRecords) {
    out.hasRecord = true;
    out.record = campaign::makeRecord(
        plan, outcome, out.modeledSeconds, std::to_string(plan.target),
        netlist::toString(targetUnit(spec, plan.target)), -1, nullptr);
  }
  return out;
}

campaign::ExperimentOutcome VfitTool::runExperimentAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, unsigned rerun) {
  const unsigned one[] = {index};
  return runWaveAt(spec, pool, one, rerun).front();
}

campaign::ExperimentOutcome VfitTool::synthesizeOutcome(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, const campaign::ExperimentOutcome& representative) {
  // Costs come from this experiment's OWN plan - VFIT's cost model is a
  // pure function of (target, instant, window) - so only the behavioral
  // outcome is cloned from the representative.
  campaign::ExperimentOutcome out =
      makeOutcome(spec, index, planExperiment(spec, pool, index),
                  representative.outcome);
  out.attempts = 0;
  if (out.hasRecord) {
    out.record.prunedFrom = static_cast<std::int64_t>(representative.index);
  }
  return out;
}

std::vector<campaign::ExperimentOutcome> VfitTool::runWaveAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    std::span<const unsigned> indices, unsigned /*rerun*/) {
  require(indices.size() <= kWaveExperiments, ErrorKind::InvalidArgument,
          "wave exceeds the lane budget");
  require(supports(spec.model), ErrorKind::InvalidArgument, kNoDelay);
  ctrWaves_.inc();

  using Word = sim::CompiledSimulator::Word;
  const unsigned n = static_cast<unsigned>(indices.size());
  std::vector<LanePlan> plans;
  plans.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    plans.push_back(planExperiment(spec, pool, indices[i]));
    require(plans.back().injectCycle < runCycles_, ErrorKind::InvalidArgument,
            "injection instant beyond workload");
  }

  csim_.reset();

  // Lane L's outcome is bit L of two masks: `failed` ORs, every cycle, each
  // observed net's lane word XOR its golden bit broadcast to all lanes, and
  // `latent` does the same for every flop and stored RAM bit after the last
  // edge. observedBit gives each packed output bit one net, so the masks
  // equal campaign::classify's packed-word comparison bit for bit.
  // Experiment i lives in lane i+1; lane 0 is never perturbed.
  Word failed = 0;
  for (std::uint64_t c = 0; c < runCycles_; ++c) {
    bool acted = false;
    for (unsigned i = 0; i < n; ++i) {
      const LanePlan& p = plans[i];
      const Word laneBit = Word{1} << (i + 1);
      switch (spec.model) {
        case FaultModel::BitFlip:
          if (c == p.injectCycle) {
            if (spec.targets == TargetClass::SequentialFF) {
              csim_.xorFlopLanes(FlopId{p.target}, laneBit);
            } else {
              const RamId ram{p.target >> 24};
              const std::size_t row = (p.target >> 8) & 0xFFFF;
              const unsigned bit = p.target & 0xFF;
              csim_.xorRamBitLanes(ram, row, bit, laneBit);
            }
            acted = true;
          }
          break;
        case FaultModel::Pulse:
          // The per-cycle release + force(!value) loop of the scalar
          // reference is, observably, a persistent inversion across the
          // window.
          if (p.window != 0) {
            if (c == p.injectCycle) {
              csim_.xorNetLanes(NetId{p.target}, laneBit);
              acted = true;
            } else if (c == p.injectCycle + p.window) {
              csim_.clearXorNetLanes(NetId{p.target}, laneBit);
              acted = true;
            }
          }
          break;
        case FaultModel::Indetermination: {
          const bool ff = spec.targets == TargetClass::SequentialFF;
          if (c >= p.injectCycle && c < p.injectCycle + p.window) {
            const Word v = p.value ? laneBit : Word{0};
            if (ff) {
              csim_.depositFlopLanes(FlopId{p.target}, laneBit, v);
            } else {
              csim_.forceLanes(NetId{p.target}, laneBit, v);
            }
            acted = true;
          } else if (!ff && p.window != 0 && c == p.injectCycle + p.window) {
            csim_.releaseLanes(NetId{p.target}, laneBit);
            acted = true;
          }
          break;
        }
        case FaultModel::Delay:
          break;  // rejected above
      }
    }
    if (acted) csim_.settle();

    const std::uint64_t golden = golden_.outputs[c];
    for (const auto& [net, pos] : observed_) {
      failed |= csim_.netWord(net) ^ csim_.broadcast((golden >> pos) & 1);
    }
    csim_.step();
  }
  require((failed & 1) == 0, ErrorKind::ConfigError,
          "compiled golden lane diverged from the event-driven golden run");

  Word latent = 0;
  for (std::uint32_t f = 0; f < nl_.flopCount(); ++f) {
    latent |=
        csim_.flopWord(FlopId{f}) ^ csim_.broadcast(golden_.finalFlops[f]);
  }
  std::size_t word = 0;  // golden_.finalMemory: every RAM's rows in order
  for (std::uint32_t r = 0; r < nl_.ramCount(); ++r) {
    const auto& ram = nl_.ram(RamId{r});
    for (std::size_t row = 0; row < ram.depth(); ++row, ++word) {
      for (unsigned b = 0; b < ram.dataBits; ++b) {
        latent |= csim_.ramBitWord(RamId{r}, row, b) ^
                  csim_.broadcast((golden_.finalMemory[word] >> b) & 1);
      }
    }
  }
  require((latent & 1) == 0, ErrorKind::ConfigError,
          "compiled golden lane final state diverged from the "
          "event-driven golden run");

  std::vector<campaign::ExperimentOutcome> out;
  out.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    const Outcome o = (failed >> (i + 1)) & 1   ? Outcome::Failure
                      : (latent >> (i + 1)) & 1 ? Outcome::Latent
                                                : Outcome::Silent;
    ctrCommands_.add(plans[i].commands);
    ctrExperiments_.inc();
    out.push_back(makeOutcome(spec, indices[i], plans[i], o));
  }
  return out;
}

campaign::EngineFactory vfitEngineFactory(const Netlist& netlist,
                                          std::uint64_t runCycles,
                                          VfitOptions options) {
  return [&netlist, runCycles, options] {
    return std::make_unique<VfitTool>(netlist, runCycles, options);
  };
}

}  // namespace fades::vfit
