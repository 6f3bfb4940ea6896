// VFIT - the VHDL-simulator fault-injection baseline (paper Section 6).
//
// VFIT applies the "simulator commands" technique: the model executes on an
// event-driven simulator and faults are injected by forcing signals and
// depositing register/memory values. Its execution time is dominated by
// simulating the model on the host CPU, which is why the paper reports very
// similar times for every fault type and length (Section 6.2); the cost
// model reproduces that behaviour from the real event count of the golden
// run on the event-driven simulator.
//
// Campaigns run bit-parallel: 63 experiments per pass of the compiled
// simulator, classified by two lane masks (`failed`: an observed net left
// the golden run; `latent`: a flop or RAM bit ends off it), lane 0 checked
// against the event-driven golden run. runExperiment() keeps the scalar
// simulator-command path as the reference the waves are compared against.
//
// Like the original tool, delay faults are NOT supported: the model would
// need explicit generic delay clauses, which it does not have (the paper
// could not run the delay comparison either, Table 3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace fades::vfit {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::Observation;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::FlopId;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;
using netlist::Unit;

/// The observed output bits of `ports` in `netlist` as (net, position in
/// every packed output word) pairs, in campaign::observedBit's layout.
/// InvalidArgument names a port the netlist lacks or the word cannot hold.
using ObservedBits = std::vector<std::pair<NetId, unsigned>>;
ObservedBits observedLayout(const Netlist& netlist,
                            const std::vector<std::string>& ports);
/// The packed output word `sim` shows now.
std::uint64_t outputWord(const sim::Simulator& sim, const ObservedBits& bits);

// --- fault-location process (model level) ---------------------------------
// Pure functions of the netlist, so a prune plan enumerates targets without
// building a simulator.
std::vector<FlopId> flopTargets(const Netlist& netlist, Unit unit);
/// Named combinational signals (HDL-level view: only signals that exist
/// by name in the model, the way a VHDL tool sees them).
std::vector<NetId> signalTargets(const Netlist& netlist, Unit unit);
std::vector<RamId> ramTargets(const Netlist& netlist);
/// The spec's target pool: its explicit pool when set, otherwise every
/// target of its class and unit.
std::vector<std::uint32_t> targetPool(const Netlist& netlist,
                                      const CampaignSpec& spec);

/// An indetermination fault holds one randomized value for its whole
/// duration. Re-randomizing it every cycle is a FADES-only option
/// (core::FadesOptions), where it measures reconfiguration cost.
struct VfitOptions {
  /// Output ports whose traces define Failure (observedLayout's limits).
  std::vector<std::string> observedOutputs = {"p0", "p1"};
  /// Keep per-experiment records in the campaign result.
  bool keepRecords = false;
  /// Prefix for the obs counters this tool bumps ("<prefix>.commands",
  /// "<prefix>.experiments", "<prefix>.waves"). The autonomous backend
  /// reuses VfitTool as its semantic engine under its own prefix, so the two
  /// injectors stay separable in the metrics snapshot.
  std::string metricsPrefix = "vfit";
};

/// The simulator-command injector, and a campaign::CampaignEngine whose
/// waveWidth() is one compiled wave: campaigns run through
/// campaign::runCampaign, on this tool alone or on vfitEngineFactory's
/// replicas.
class VfitTool : public campaign::CampaignEngine {
 public:
  /// The netlist is the HDL model; runCycles is the workload length.
  VfitTool(const Netlist& netlist, std::uint64_t runCycles,
           VfitOptions options = {});

  // --- modeled host-CPU cost ------------------------------------------------
  // One experiment costs kSecondsFixedPerExperiment + the golden run's
  // event count * kSecondsPerEvent + its commands * kSecondsPerCommand.
  /// Host CPU cost per simulation event (gate evaluation / state update).
  /// Calibrated so one full workload simulation lands near the paper's
  /// 7.2 s-per-experiment VFIT average on a 2006-class workstation.
  static constexpr double kSecondsPerEvent = 9.6e-7;
  /// Simulator-command (force/release/deposit) scripting overhead.
  static constexpr double kSecondsPerCommand = 0.0005;
  /// Fixed per-experiment cost: restart, trace set-up, result dump.
  static constexpr double kSecondsFixedPerExperiment = 0.35;

  bool supports(FaultModel m) const { return m != FaultModel::Delay; }

  // --- campaign::CampaignEngine --------------------------------------------
  /// vfit::targetPool, which the prune plan calls too.
  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override {
    return targetPool(nl_, spec);
  }

  /// Campaign experiment `index` as a pure function of (spec, pool, index):
  /// a wave of one. The per-index unit the executor retries, the prune
  /// member checks and the diffcheck oracle call. There is no link model,
  /// so a rerun replays identically.
  campaign::ExperimentOutcome runExperimentAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  /// Experiments per compiled wave: 63 faulty lanes; lane 0 stays golden
  /// and is checked against the event-driven golden run every wave.
  static constexpr unsigned kWaveExperiments =
      sim::CompiledSimulator::kLanes - 1;
  unsigned waveWidth() const override { return kWaveExperiments; }

  /// Run the experiments named by `indices` (at most kWaveExperiments) in
  /// one bit-parallel pass on the compiled engine. Lane assignment is
  /// irrelevant to the result - lanes are independent machines - so partial
  /// waves and arbitrary index subsets return exactly what a full wave
  /// returns per index. An unsupported fault model is InvalidArgument.
  std::vector<campaign::ExperimentOutcome> runWaveAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) override;

  /// The scalar simulator-command reference: one experiment replayed from
  /// reset on the event-driven simulator, injecting through force / release
  /// / deposit the way the original tool does. No campaign runs through it;
  /// the equivalence suites compare every wave against it. `commandsOut`
  /// reports how many simulator commands the injection issued.
  Outcome runExperiment(FaultModel model, TargetClass targets,
                        std::uint32_t targetIndex, std::uint64_t injectCycle,
                        double durationCycles, common::Rng& rng,
                        double* modeledSeconds = nullptr,
                        unsigned* commandsOut = nullptr);

  const Observation& golden() const { return golden_; }

  /// Pre-drawn fault script of one experiment: its campaign draw, then the
  /// edge rule (campaign::activeCycles) and the indetermination value from
  /// the draw's stream, in the order runExperiment makes them. The stream
  /// itself stays out: the wave loop walks every plan each cycle, and a
  /// 32-byte stream per plan slows VFIT campaigns by about a quarter.
  /// Public because the autonomous backend re-meters the same plan
  /// (command count, window) under its own cost model.
  struct LanePlan : campaign::FaultDraw {
    std::uint64_t window = 0;  // active cycles, clipped to the workload end
    unsigned commands = 0;
    bool value = false;  // the indetermination value, held every cycle
  };
  LanePlan planExperiment(const CampaignSpec& spec,
                          std::span<const std::uint32_t> pool,
                          unsigned index) const;

  /// Materialize experiment `index` from its fades.prune/1 class
  /// representative without simulating: the cost model is a pure function
  /// of the experiment's own plan (re-derived here), and the behavioral
  /// outcome is cloned from the representative the plan proved equivalent.
  campaign::ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index,
      const campaign::ExperimentOutcome& representative) override;

 private:
  Unit targetUnit(const CampaignSpec& spec, std::uint32_t target) const;
  campaign::ExperimentOutcome makeOutcome(const CampaignSpec& spec,
                                          unsigned index, const LanePlan& plan,
                                          Outcome outcome) const;
  void captureFinalState(Observation& obs) const;

  const Netlist& nl_;
  std::uint64_t runCycles_;
  VfitOptions opt_;
  /// Golden run and the scalar reference.
  sim::Simulator sim_;
  /// Campaign waves.
  sim::CompiledSimulator csim_;
  ObservedBits observed_;
  obs::Counter& ctrCommands_;
  obs::Counter& ctrExperiments_;
  obs::Counter& ctrWaves_;

  Observation golden_;
  std::uint64_t goldenEvents_ = 0;
  double goldenSeconds_ = 0;
};

/// Factory for the parallel campaign runner: every worker gets its own
/// VfitTool replica (each pays the golden run in its own thread). The
/// netlist reference must outlive the runner.
campaign::EngineFactory vfitEngineFactory(const Netlist& netlist,
                                          std::uint64_t runCycles,
                                          VfitOptions options = {});

}  // namespace fades::vfit
