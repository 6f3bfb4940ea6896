// Shared fault-injection campaign vocabulary.
//
// Both tools - FADES (run-time reconfiguration on the FPGA) and VFIT
// (simulator commands on the event-driven simulator) - run the same
// experiment design from the paper's Section 6.1: single transient faults,
// injection instants uniformly distributed over the workload, durations
// drawn from three bands (<1, 1-10, 11-20 clock cycles), outcomes classified
// against a golden run as Failure / Latent / Silent (Section 5).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace fades::campaign {

enum class FaultModel : std::uint8_t { BitFlip, Pulse, Delay, Indetermination };
const char* toString(FaultModel m);
/// Inverse of toString(FaultModel); false when `text` names no model.
bool faultModelFromString(std::string_view text, FaultModel& out);

/// Which resource class a campaign draws targets from; mirrors the
/// "FPGA target" column of the paper's Table 1.
enum class TargetClass : std::uint8_t {
  SequentialFF,       // flip-flops (bit-flip / indetermination)
  MemoryBlockBit,     // embedded memory contents (bit-flip)
  CombinationalLut,   // function generators (pulse / indetermination)
  CbInputLine,        // CB input through its inverter mux (pulse)
  SequentialLine,     // routed line driven by a flip-flop (delay)
  CombinationalLine,  // routed line driven by a LUT (delay)
};
const char* toString(TargetClass t);
/// Inverse of toString(TargetClass); false when `text` names no class.
bool targetClassFromString(std::string_view text, TargetClass& out);

/// Fault effect classification (paper Section 5, results analysis module).
enum class Outcome : std::uint8_t { Silent, Latent, Failure };
const char* toString(Outcome o);
/// Inverse of toString(Outcome); false when `text` names no outcome.
bool outcomeFromString(std::string_view text, Outcome& out);
/// Inverse of common::toString(ErrorKind); false when `text` names no kind.
bool errorKindFromString(std::string_view text, common::ErrorKind& out);

/// Fault duration band, in clock cycles. The sub-cycle band models faults
/// shorter than one clock period: they are only captured when they overlap
/// a sampling edge, which happens with probability equal to their fraction
/// of the cycle.
struct DurationBand {
  double minCycles = 1.0;
  double maxCycles = 1.0;
  std::string label;

  static DurationBand subCycle() { return {0.0, 1.0, "<1"}; }
  static DurationBand shortBand() { return {1.0, 10.0, "1-10"}; }
  static DurationBand longBand() { return {11.0, 20.0, "11-20"}; }
  static std::vector<DurationBand> paperBands() {
    return {subCycle(), shortBand(), longBand()};
  }
};

/// Output trace plus final-state signature of one run. Traces hold one word
/// per cycle (the observed output ports packed together); the signature
/// holds every sequential element and memory word.
struct Observation {
  std::vector<std::uint64_t> outputs;
  std::vector<std::uint8_t> finalFlops;
  std::vector<std::uint64_t> finalMemory;
};

/// Compare a faulty run against the golden run.
Outcome classify(const Observation& golden, const Observation& faulty);

/// Position 16k + j of bit j of the k-th observed port in Observation::outputs;
/// a fifth port or a bit past the 16th is InvalidArgument naming the port.
unsigned observedBit(const std::string& port, std::size_t k, std::size_t j);

struct CampaignSpec {
  FaultModel model = FaultModel::BitFlip;
  TargetClass targets = TargetClass::SequentialFF;
  /// Functional unit to confine faults to; Unit::None = anywhere. Typed as
  /// the netlist Unit in the runners; kept as int here to avoid a cycle.
  int unit = 0;
  DurationBand band = DurationBand::shortBand();
  unsigned experiments = 3000;
  std::uint64_t seed = 1;
  /// When non-empty, faults are drawn from this explicit pool of target
  /// handles instead of the full enumeration - the paper's campaigns over
  /// "eligible" registers / "selected" memory positions work this way.
  std::vector<std::uint32_t> targetPool;
};

/// The fault of one experiment (Section 6.1): a uniformly drawn target
/// from the pool, a uniformly drawn injection instant and a duration
/// uniform over the spec's band.
struct FaultDraw {
  std::uint32_t target = 0;
  std::uint64_t injectCycle = 0;
  double duration = 0;
};

/// What drawExperiment returns: the fault, and the experiment's stream just
/// after those three draws, from which the injector takes its edge-rule and
/// in-fault draws.
struct ExperimentDraw : FaultDraw {
  common::Rng rng{0};
};

/// Experiment `index`'s draw. Its stream is streamSeed(spec.seed,
/// 131 * index + attempt), a pure function of (spec, index, attempt), so
/// every worker, every tool and the prune analysis draw the same fault; a
/// site that cannot host the fault is redrawn at the next attempt (attempts
/// stay far below the stride, so no two experiments share a stream).
ExperimentDraw drawExperiment(const CampaignSpec& spec,
                              std::span<const std::uint32_t> pool,
                              std::uint64_t runCycles, std::uint64_t index,
                              unsigned attempt = 0);

/// Clock edges a fault of `duration` cycles reaches. A sub-cycle fault
/// overlaps a sampling edge with probability equal to its length (one draw
/// from `rng`); a longer one lasts its duration rounded half up (no draw).
std::uint64_t activeCycles(double duration, common::Rng& rng);

/// One golden-run instruction sample: the instruction in flight during a
/// given clock cycle. Produced by an ISS trace hook (mc8051::Iss::
/// tracePcPerCycle) and attached to the injectors via their options so each
/// experiment record carries CFA-style root-cause attribution.
struct InstructionSample {
  std::uint32_t pc = 0;
  std::uint32_t opcode = 0;
};
/// Indexed by cycle: entry c describes the instruction executing at cycle c.
using InstructionTrace = std::vector<InstructionSample>;

struct ExperimentRecord {
  std::string targetName;
  std::uint64_t injectCycle = 0;
  double durationCycles = 0;
  Outcome outcome = Outcome::Silent;
  double modeledSeconds = 0;
  /// Component attribution: the functional unit of the injected site, as a
  /// netlist::toString(Unit) name ("registers", "alu", "fsm", "memctrl",
  /// "ram"; "none" when the site belongs to no unit).
  std::string component;
  /// Golden-run instruction in flight at the injection instant (root-cause
  /// attribution); -1 when no instruction trace was attached to the tool.
  std::int64_t pc = -1;
  std::int64_t opcode = -1;
  /// First cycle whose observed outputs diverged from the golden run, so
  /// detectCycle - injectCycle is the fault latency; -1 when the output
  /// trace never diverged (silent and latent outcomes).
  std::int64_t detectCycle = -1;
  /// Experiment index of the equivalence-class representative this record
  /// was synthesized from under a fades.prune/1 plan; -1 when the
  /// experiment was executed for real (unpruned artifacts never carry the
  /// field, so they stay byte-identical).
  std::int64_t prunedFrom = -1;
};

/// The record of an experiment whose fault is `draw`. The injector names
/// the target and its component; with an instruction trace, pc and opcode
/// are the instruction in flight at the injection instant.
ExperimentRecord makeRecord(const FaultDraw& draw, Outcome outcome,
                            double modeledSeconds, std::string targetName,
                            std::string component, std::int64_t detectCycle,
                            const InstructionTrace* trace);

/// Self-contained result of one campaign experiment. campaign::runCampaign
/// folds these into a CampaignResult strictly in experiment-index order, so
/// every accumulated floating-point sum is bit-identical no matter which
/// worker ran which experiment or in what order the shards finished.
struct ExperimentOutcome {
  std::uint64_t index = 0;  // experiment index within the campaign
  Outcome outcome = Outcome::Silent;
  double modeledSeconds = 0;
  double configSeconds = 0;
  double workloadSeconds = 0;
  double hostSeconds = 0;
  std::uint64_t bytesToDevice = 0;
  std::uint64_t bytesFromDevice = 0;
  std::uint64_t sessions = 0;
  bool hasRecord = false;
  ExperimentRecord record;  // meaningful only when hasRecord is set
  /// Experiment failure: every retry attempt raised a transient error, so
  /// the experiment was quarantined instead of aborting the campaign. A
  /// quarantined outcome contributes nothing to the tallies or the cost
  /// breakdown; it is recorded in CampaignResult::quarantined.
  bool quarantined = false;
  common::ErrorKind failureKind = common::ErrorKind::InvalidArgument;
  std::string failureMessage;  // meaningful only when quarantined is set
  unsigned attempts = 0;       // runs consumed (successful run included)
};

/// One experiment that exhausted its retry budget on transient errors. The
/// quarantined set is part of the campaign result: with link faults the set
/// is a pure function of the spec, so it is identical at any --jobs.
struct QuarantinedExperiment {
  std::uint64_t index = 0;
  common::ErrorKind kind = common::ErrorKind::InvalidArgument;
  std::string error;
  unsigned attempts = 0;
};

/// Modeled cost decomposition of a whole campaign - where the emulation
/// time went (the split behind the paper's Figure 10 / Table 2 numbers).
/// Field meaning per tool: for FADES `configSeconds` is host<->board
/// reconfiguration traffic and `workloadSeconds` is execution at the FPGA
/// clock; for VFIT `configSeconds` is simulator-command scripting and
/// `workloadSeconds` is host-CPU simulation of the model.
struct CostBreakdown {
  double configSeconds = 0;    // injection / reconfiguration mechanism
  double workloadSeconds = 0;  // running the workload itself
  double hostSeconds = 0;      // fixed per-experiment host bookkeeping
  std::uint64_t bytesToDevice = 0;
  std::uint64_t bytesFromDevice = 0;
  std::uint64_t sessions = 0;

  double totalSeconds() const {
    return configSeconds + workloadSeconds + hostSeconds;
  }
};

struct CampaignResult {
  CampaignSpec spec;
  std::size_t failures = 0;
  std::size_t latents = 0;
  std::size_t silents = 0;
  common::RunningStats modeledSeconds;  // per experiment
  CostBreakdown cost;  // campaign-total decomposition of modeledSeconds
  std::vector<ExperimentRecord> records;  // filled when spec asks for detail
  /// Experiments that failed all retry attempts with transient errors, in
  /// index order (the fold order). Not counted in total() or cost.
  std::vector<QuarantinedExperiment> quarantined;

  std::size_t total() const { return failures + latents + silents; }
  double failurePct() const { return common::percent(failures, total()); }
  double latentPct() const { return common::percent(latents, total()); }
  double silentPct() const { return common::percent(silents, total()); }
  void add(Outcome o, double seconds) {
    switch (o) {
      case Outcome::Failure: ++failures; break;
      case Outcome::Latent: ++latents; break;
      case Outcome::Silent: ++silents; break;
    }
    modeledSeconds.add(seconds);
  }
  /// Accumulate one experiment. The canonical fold of campaign::runCampaign
  /// and the service merge; keeping it in one place is what makes "same
  /// outcomes in the same order => bit-identical result" hold.
  void fold(const ExperimentOutcome& x) {
    if (x.quarantined) {
      quarantined.push_back(
          {x.index, x.failureKind, x.failureMessage, x.attempts});
      return;  // no result to tally, no modeled cost to accumulate
    }
    add(x.outcome, x.modeledSeconds);
    cost.configSeconds += x.configSeconds;
    cost.workloadSeconds += x.workloadSeconds;
    cost.hostSeconds += x.hostSeconds;
    cost.bytesToDevice += x.bytesToDevice;
    cost.bytesFromDevice += x.bytesFromDevice;
    cost.sessions += x.sessions;
    if (x.hasRecord) records.push_back(x.record);
  }
};

}  // namespace fades::campaign
