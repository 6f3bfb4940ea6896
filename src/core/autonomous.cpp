#include "core/autonomous.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace fades::core {

using campaign::CampaignSpec;
using common::ErrorKind;
using common::require;
using netlist::Netlist;
using netlist::RamId;

namespace {

/// The semantic engine runs the SOURCE model under VFIT fault semantics (an
/// injection is the same state perturbation whichever injector applies it);
/// only the metering differs, and remeter() below replaces it wholesale.
vfit::VfitOptions semanticOptions(const AutonomousOptions& o) {
  vfit::VfitOptions v;
  v.observedOutputs = o.observedOutputs;
  v.keepRecords = o.keepRecords;
  v.metricsPrefix = "autonomous";
  return v;
}

}  // namespace

AutonomousTool::AutonomousTool(const Netlist& netlist, std::uint64_t runCycles,
                               AutonomousOptions options)
    : runCycles_(runCycles),
      opt_(std::move(options)),
      model_(synth::instrumentAutonomous(netlist)),
      vfit_(netlist, runCycles, semanticOptions(opt_)) {
  // Restore sweep: one cycle writes every shadow flip-flop back at once;
  // each shadow memory row is then replayed through the write port.
  for (std::uint32_t r = 0; r < netlist.ramCount(); ++r) {
    const auto& ram = netlist.ram(RamId{r});
    if (!ram.isRom()) restoreCycles_ += ram.depth();
  }
  verifyInstrumentation();
}

void AutonomousTool::verifyInstrumentation() {
  // With every am_* control at 0 the instrumented model must be
  // cycle-accurate equivalent to the source: same observed outputs for the
  // whole workload. reset() zeroes all inputs, so not touching the control
  // ports is exactly the all-zeros condition.
  sim::Simulator isim(model_.netlist);
  isim.reset();
  const auto& golden = vfit_.golden().outputs;
  for (std::uint64_t c = 0; c < runCycles_; ++c) {
    std::uint64_t w = 0;
    unsigned shift = 0;
    for (const auto& port : opt_.observedOutputs) {
      w |= isim.portValue(port) << shift;
      shift += 16;
    }
    require(w == golden[c], ErrorKind::ConfigError,
            "instrumented model diverged from the source model with all "
            "autonomous controls at 0 (cycle " +
                std::to_string(c) + ")");
    isim.step();
  }
}

double AutonomousTool::injectionOverheadSeconds(unsigned commands) const {
  return static_cast<double>(model_.chainBits + commands + restoreCycles_) /
             kFpgaClockHz +
         kHostPerInjectionSeconds;
}

campaign::ExperimentOutcome AutonomousTool::remeter(
    campaign::ExperimentOutcome out, unsigned commands) const {
  // Everything the injection does happens inside the emulator at clock
  // speed: load the mask chain, fire the fault (one activation cycle per
  // simulator command the VFIT script would have issued), run the workload,
  // restore the golden state. No configuration frame moves, so the device
  // byte counters stay 0 - the defining property of autonomous emulation.
  const double config =
      static_cast<double>(model_.chainBits + commands + restoreCycles_) /
      kFpgaClockHz;
  const double workload = static_cast<double>(runCycles_) / kFpgaClockHz;
  const double host = kHostPerInjectionSeconds;
  out.configSeconds = config;
  out.workloadSeconds = workload;
  out.hostSeconds = host;
  out.modeledSeconds = config + workload + host;
  out.bytesToDevice = 0;
  out.bytesFromDevice = 0;
  out.sessions = 0;
  if (out.hasRecord) out.record.modeledSeconds = out.modeledSeconds;
  return out;
}

std::vector<std::uint32_t> AutonomousTool::enumeratePool(
    const CampaignSpec& spec) {
  return vfit_.enumeratePool(spec);
}

campaign::ExperimentOutcome AutonomousTool::runExperimentAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, unsigned rerun) {
  const unsigned one[] = {index};
  return runWaveAt(spec, pool, one, rerun).front();
}

std::vector<campaign::ExperimentOutcome> AutonomousTool::runWaveAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    std::span<const unsigned> indices, unsigned rerun) {
  auto outs = vfit_.runWaveAt(spec, pool, indices, rerun);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    outs[i] = remeter(std::move(outs[i]),
                      vfit_.planExperiment(spec, pool, indices[i]).commands);
  }
  return outs;
}

campaign::EngineFactory autonomousEngineFactory(const Netlist& netlist,
                                                std::uint64_t runCycles,
                                                AutonomousOptions options) {
  return [&netlist, runCycles, options] {
    return std::make_unique<AutonomousTool>(netlist, runCycles, options);
  };
}

}  // namespace fades::core
