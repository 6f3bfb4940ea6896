#include "campaign/types.hpp"

#include <utility>

namespace fades::campaign {

const char* toString(FaultModel m) {
  switch (m) {
    case FaultModel::BitFlip: return "bit-flip";
    case FaultModel::Pulse: return "pulse";
    case FaultModel::Delay: return "delay";
    case FaultModel::Indetermination: return "indetermination";
  }
  return "?";
}

const char* toString(TargetClass t) {
  switch (t) {
    case TargetClass::SequentialFF: return "FFs";
    case TargetClass::MemoryBlockBit: return "memory blocks";
    case TargetClass::CombinationalLut: return "LUTs";
    case TargetClass::CbInputLine: return "CB inputs";
    case TargetClass::SequentialLine: return "sequential lines";
    case TargetClass::CombinationalLine: return "combinational lines";
  }
  return "?";
}

bool faultModelFromString(std::string_view text, FaultModel& out) {
  for (const FaultModel m : {FaultModel::BitFlip, FaultModel::Pulse,
                             FaultModel::Delay, FaultModel::Indetermination}) {
    if (text == toString(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

bool targetClassFromString(std::string_view text, TargetClass& out) {
  for (const TargetClass t :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit,
        TargetClass::CombinationalLut, TargetClass::CbInputLine,
        TargetClass::SequentialLine, TargetClass::CombinationalLine}) {
    if (text == toString(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Silent: return "silent";
    case Outcome::Latent: return "latent";
    case Outcome::Failure: return "failure";
  }
  return "?";
}

bool outcomeFromString(std::string_view text, Outcome& out) {
  for (const Outcome o : {Outcome::Silent, Outcome::Latent, Outcome::Failure}) {
    if (text == toString(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

bool errorKindFromString(std::string_view text, common::ErrorKind& out) {
  using common::ErrorKind;
  for (const ErrorKind k :
       {ErrorKind::InvalidArgument, ErrorKind::NetlistError,
        ErrorKind::SynthesisError, ErrorKind::RoutingError,
        ErrorKind::ConfigError, ErrorKind::CapacityError,
        ErrorKind::WorkloadError, ErrorKind::InjectionError,
        ErrorKind::LinkError}) {
    if (text == common::toString(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

Outcome classify(const Observation& golden, const Observation& faulty) {
  // Failure: the traces present different outputs (paper Section 5).
  if (golden.outputs != faulty.outputs) return Outcome::Failure;
  // Latent: same outputs but a different final state.
  if (golden.finalFlops != faulty.finalFlops ||
      golden.finalMemory != faulty.finalMemory) {
    return Outcome::Latent;
  }
  return Outcome::Silent;
}

unsigned observedBit(const std::string& port, std::size_t k, std::size_t j) {
  common::require(k < 4 && j < 16, common::ErrorKind::InvalidArgument,
                  "observed output port '" + port +
                      "' does not fit the output word (4 ports of 16 bits)");
  return static_cast<unsigned>(16 * k + j);
}

ExperimentDraw drawExperiment(const CampaignSpec& spec,
                              std::span<const std::uint32_t> pool,
                              std::uint64_t runCycles, std::uint64_t index,
                              unsigned attempt) {
  ExperimentDraw d;
  d.rng = common::Rng(common::streamSeed(spec.seed, index * 131 + attempt));
  d.target = pool[d.rng.below(pool.size())];
  d.injectCycle = d.rng.below(runCycles);
  d.duration = spec.band.minCycles +
               d.rng.uniform01() * (spec.band.maxCycles - spec.band.minCycles);
  return d;
}

std::uint64_t activeCycles(double duration, common::Rng& rng) {
  if (duration < 1.0) return rng.uniform01() < duration ? 1 : 0;
  return static_cast<std::uint64_t>(duration + 0.5);
}

ExperimentRecord makeRecord(const FaultDraw& draw, Outcome outcome,
                            double modeledSeconds, std::string targetName,
                            std::string component, std::int64_t detectCycle,
                            const InstructionTrace* trace) {
  ExperimentRecord r{std::move(targetName), draw.injectCycle, draw.duration,
                     outcome, modeledSeconds, std::move(component)};
  r.detectCycle = detectCycle;
  if (trace != nullptr && draw.injectCycle < trace->size()) {
    r.pc = (*trace)[draw.injectCycle].pc;
    r.opcode = (*trace)[draw.injectCycle].opcode;
  }
  return r;
}

}  // namespace fades::campaign
