// Autonomous emulation - the third injector (Lopez-Ongil et al.,
// "Techniques for Fast Transient Fault Grading Based on Autonomous
// Emulation", see PAPERS.md).
//
// Where the paper's RTR technique moves configuration frames for every
// injection and VFIT scripts a host simulator, autonomous emulation compiles
// the injection support into the design itself (synth::instrumentAutonomous):
// per-flip-flop injection masks behind a scan chain, a shadow golden-state
// copy per flip-flop and memory block, and a single-cycle faulty->golden
// restore. One injection then costs
//
//     mask-load (chainBits cycles) + fault activation (command cycles)
//     + restore sweep (1 + shadow-memory rows cycles)
//
// all at emulator clock speed, with ZERO configuration bytes moved - which
// is exactly what this tool's cost model charges, so the RTR-vs-autonomous
// speedup is measured from the meters rather than asserted.
//
// Semantically an injection is the same state perturbation FADES and VFIT
// apply, so AutonomousTool reuses VfitTool as its semantic engine (under the
// "autonomous" metrics prefix, running the same 63-experiment bit-parallel
// waves) and re-meters every outcome under the emulator-cycle cost model
// above. Outcome classification is therefore field-for-field identical to
// VFIT by construction, and the 4-way diffcheck oracle (FADES / VFIT /
// autonomous / golden ISS) pins it that way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "netlist/netlist.hpp"
#include "synth/instrument.hpp"
#include "vfit/vfit.hpp"

namespace fades::core {

/// As in VFIT, an indetermination fault holds one randomized value for its
/// whole duration.
struct AutonomousOptions {
  /// Output ports whose traces define Failure (vfit::observedLayout; also
  /// used by the instrumentation transparency check).
  std::vector<std::string> observedOutputs = {"p0", "p1"};
  /// Keep per-experiment records in the campaign result.
  bool keepRecords = false;
};

/// The autonomous-emulation injector, and a campaign::CampaignEngine with
/// VFIT's wave width: campaigns run through campaign::runCampaign, on this
/// tool alone or on autonomousEngineFactory's replicas. It keeps the
/// default synthesizeOutcome, so prune plans are refused.
class AutonomousTool : public campaign::CampaignEngine {
 public:
  /// `netlist` is the SOURCE model; the constructor builds the autonomous
  /// instrumentation itself (see model()) and the semantic engine over the
  /// source. The netlist must outlive the tool.
  /// Before any campaign runs, the constructor simulates the instrumented
  /// netlist with every control input at 0 for the whole workload and
  /// requires its observed outputs to match the golden run cycle for cycle
  /// (ConfigError otherwise), which catches a broken instrumentation pass.
  AutonomousTool(const netlist::Netlist& netlist, std::uint64_t runCycles,
                 AutonomousOptions options = {});

  // --- emulator-cycle cost model --------------------------------------------
  /// Emulator clock. The instrumented design runs in hardware, so the
  /// workload, the mask load and the restore sweep are all charged at this
  /// rate (same 25 MHz class of device as the RTR tool's).
  static constexpr double kFpgaClockHz = 25.0e6;
  /// Host-side cost per injection: pushing the next mask pattern and
  /// reading the outcome word back over the control link. Orders of
  /// magnitude below the RTR tool's per-experiment host cost because no
  /// readback/re-download of configuration frames happens.
  static constexpr double kHostPerInjectionSeconds = 0.0005;

  /// Same support matrix as VFIT: delay faults would need timing
  /// annotations neither the instrumentation nor the engine carries.
  bool supports(campaign::FaultModel m) const {
    return m != campaign::FaultModel::Delay;
  }

  // --- campaign::CampaignEngine --------------------------------------------
  /// Deterministic target enumeration; identical to VFIT's for the same
  /// spec, so aligned campaigns draw identical faults.
  std::vector<std::uint32_t> enumeratePool(
      const campaign::CampaignSpec& spec) override;

  /// Campaign experiment `index` as a pure function of (spec, pool, index):
  /// the VFIT semantic outcome (a wave of one) re-metered under the
  /// autonomous cost model. Injections never move bytes, so a rerun
  /// replays identically.
  campaign::ExperimentOutcome runExperimentAt(
      const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  static constexpr unsigned kWaveExperiments = vfit::VfitTool::kWaveExperiments;
  unsigned waveWidth() const override { return kWaveExperiments; }

  /// Bit-parallel wave; per-index results are exactly runExperimentAt's,
  /// as for VfitTool.
  std::vector<campaign::ExperimentOutcome> runWaveAt(
      const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) override;
  const campaign::Observation& golden() const { return vfit_.golden(); }

  /// The instrumented netlist with its exact area overhead (gates/flops
  /// added, shadow memory bits) and the mask scan-chain layout.
  const synth::AutonomousModel& model() const { return model_; }

  /// Emulator cycles one restore sweep takes: one cycle copies every shadow
  /// flip-flop back at once, then each shadow memory row is replayed.
  std::uint64_t restoreCycles() const { return restoreCycles_; }

  /// Modeled per-injection overhead beyond the workload itself (mask load +
  /// `commands` activation cycles + restore, plus the host-side turnaround).
  double injectionOverheadSeconds(unsigned commands) const;

 private:
  campaign::ExperimentOutcome remeter(campaign::ExperimentOutcome out,
                                      unsigned commands) const;
  void verifyInstrumentation();

  std::uint64_t runCycles_;
  AutonomousOptions opt_;
  synth::AutonomousModel model_;
  vfit::VfitTool vfit_;  // semantic engine, metered under prefix "autonomous"
  std::uint64_t restoreCycles_ = 1;
};

/// Factory for the parallel campaign runner: every worker gets its own
/// AutonomousTool replica. The netlist reference must outlive the runner.
campaign::EngineFactory autonomousEngineFactory(const netlist::Netlist& netlist,
                                                std::uint64_t runCycles,
                                                AutonomousOptions options = {});

}  // namespace fades::core
