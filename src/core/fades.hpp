// FADES - FPGA-based framework for the Analysis of the Dependability of
// Embedded Systems (the paper's prototype tool, Section 5).
//
// Emulates transient faults in a synthesized HDL model through run-time
// reconfiguration of the generic FPGA, covering every mechanism of the
// paper's Table 1:
//
//   bit-flip        FFs via the GSR line (slow) or the LSR line (fast);
//                   memory blocks via configuration plane-B writes
//   pulse           LUTs via truth-table recomputation (output / input /
//                   extracted internal line); CB inputs via InvertFFinMux
//   delay           routed lines via fan-out increase (small delays) or
//                   re-routing through a longer path (large delays)
//   indetermination FFs / LUTs via randomly generated final logic values,
//                   optionally re-randomized every cycle of the fault
//
// Every reconfiguration flows through the metered ConfigPort, so the
// emulation-time results (Figure 10 / Table 2) derive from genuine
// configuration traffic plus the board-link cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "bits/config_port.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "synth/implement.hpp"

namespace fades::core {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::Observation;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::Unit;

enum class BitFlipVia : std::uint8_t { Lsr, Gsr };
/// Delay-fault mechanisms (paper Section 4.3):
///  - Fanout: switch ON an unused pass transistor touching the line; adds a
///    small capacitive delay (Figure 8, "good for small delays").
///  - Reroute: open one hop of the route and close a detour through unused
///    fabric; adds several wire segments of delay.
///  - ShiftRegister: reroute the line through unused flip-flops configured
///    as a shift register (Figure 7), delaying it by whole clock cycles -
///    the paper's "good manner to emulate a large delay in a line".
enum class DelayVia : std::uint8_t { Fanout, Reroute, ShiftRegister };

struct FadesOptions {
  /// Replicates the paper's JBits/driver problem: delay faults force a full
  /// configuration-file download instead of partial frames (Section 6.2).
  bool fullDownloadForDelay = true;
  /// Bit-flip mechanism for FFs (the paper proposes LSR as the fast path).
  BitFlipVia bitFlipVia = BitFlipVia::Lsr;
  /// Delay mechanism (Table 1: fan-out = small delays, reroute/shift
  /// register = large). The shift register is the default: its cycle-scale
  /// delays expose the duration-dependent failure rates of Figures 12/15.
  DelayVia delayVia = DelayVia::ShiftRegister;
  /// Re-randomize indetermination values every cycle of the fault duration
  /// (Section 6.2's oscillating variant; much more reconfiguration traffic).
  bool oscillatingIndetermination = false;
  /// Output ports whose traces define Failure (campaign::observedBit).
  std::vector<std::string> observedOutputs{"p0", "p1"};
  bool keepRecords = false;
  /// Deterministic unreliable-link emulation: every metered transfer after
  /// setup can hit a readback CRC mismatch, transient write failure or
  /// timeout, and is retried per `linkRetry`. The fault stream is seeded
  /// per (experiment index, rerun) from the campaign seed, never from the
  /// experiment RNG, and retry cost is charged to retry-only meter fields -
  /// so outcomes and artifacts stay bit-identical to a fault-free run.
  bits::LinkFaultOptions linkFaults{};
  bits::RetryPolicy linkRetry{};
  /// Golden-run instruction trace for root-cause attribution: entry c is the
  /// PC/opcode of the instruction in flight at cycle c (from, e.g.,
  /// mc8051::Iss::tracePcPerCycle). When set and keepRecords is on, every
  /// experiment record carries the PC and opcode under the injection
  /// instant. Shared so device replicas of a sharded campaign reuse one
  /// trace.
  std::shared_ptr<const campaign::InstructionTrace> instructionTrace;
};

/// Register-level effect of a fault, for the paper's Table 4 (one pulse in
/// combinational logic manifesting as a multiple bit-flip).
struct RegisterEffect {
  std::string reg;
  std::uint64_t golden = 0;
  std::uint64_t faulty = 0;
};

// --- fault-location process (device level) --------------------------------
// Pure functions of the implementation, so a prune plan enumerates and names
// targets without building a device.

/// Enumerate targets for a campaign. The returned handles are indices into
/// the implementation's location map, with sub-addressing packed in for
/// memory bits.
std::vector<std::uint32_t> targets(const synth::Implementation& impl,
                                   FaultModel model, TargetClass cls,
                                   Unit unit);
std::string targetName(const synth::Implementation& impl, TargetClass cls,
                       std::uint32_t target);
/// The spec's target pool: its explicit pool when set, otherwise the full
/// enumeration.
std::vector<std::uint32_t> targetPool(const synth::Implementation& impl,
                                      const CampaignSpec& spec);

/// The RTR injector over one device, and a campaign::CampaignEngine:
/// campaigns run through campaign::runCampaign, on this tool alone or on
/// the replicas fadesEngineFactory builds. Every experiment kind -
/// campaign, multiple bit-flip, permanent fault, Table 4 probe - loads its
/// instant from one golden trace, and the first three share one
/// observe/classify tail, which ends a run as soon as the replica is back
/// on the golden run, and one finish step.
class FadesTool : public campaign::CampaignEngine {
 public:
  /// Configures the device with the implementation's bitstream (the one-time
  /// download of Figure 1) and records the golden run and its trace.
  FadesTool(fpga::Device& device, const synth::Implementation& impl,
            std::uint64_t runCycles, FadesOptions options = {});

  // --- emulation-time cost model ------------------------------------------
  // One experiment costs kLink.seconds(its metered traffic) + runCycles /
  // kFpgaClockHz + kHostPerExperimentSeconds (finishExperiment).
  /// The host <-> board link (the paper's RC1000-PP + XHWIF).
  static constexpr bits::BoardLink kLink{};
  static constexpr double kFpgaClockHz = 25.0e6;
  /// Host-side work per experiment (trace comparison, bookkeeping).
  static constexpr double kHostPerExperimentSeconds = 0.025;

  bool supports(FaultModel) const { return true; }

  // --- fault-location process (device level) ------------------------------
  std::vector<std::uint32_t> targets(FaultModel model, TargetClass cls,
                                     Unit unit) const {
    return core::targets(impl_, model, cls, unit);
  }
  std::string targetName(TargetClass cls, std::uint32_t target) const {
    return core::targetName(impl_, cls, target);
  }
  /// Component the target belongs to, from the implementation's hierarchy
  /// annotations (rtl::Builder unit tags survive synthesis onto every site).
  Unit targetUnit(TargetClass cls, std::uint32_t target) const;
  /// Put the device at `cycle` of the fault-free run: the golden trace's
  /// state at that cycle, loaded with one network evaluation. Raises
  /// LinkError (the configuration audit) unless the logic plane is the
  /// downloaded one, since the trace is packed in its compiled order.
  void locate(std::uint64_t cycle);

  // --- campaign::CampaignEngine --------------------------------------------
  /// core::targetPool: deterministic per implementation, so every device
  /// replica of a sharded campaign sees the same pool.
  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override {
    return targetPool(impl_, spec);
  }

  /// Run campaign experiment `index` of `spec` against `pool`. A pure
  /// function of (spec, pool, index, rerun): target, instant, duration and
  /// the in-fault draws come from campaign::drawExperiment, and a fault
  /// site that cannot host the fault is redrawn at the next attempt.
  /// `rerun` counts experiment-level retries after transient errors; it
  /// only reseeds the link fault stream, so a retried experiment faces
  /// fresh link faults but computes the identical result.
  campaign::ExperimentOutcome runExperimentAt(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;

  /// Materialize the outcome of experiment `index` from its fades.prune/1
  /// class representative without touching the device: the planned fields
  /// (target, instant, duration) come from the experiment's own
  /// campaign::drawExperiment, and the measured fields (outcome, costs,
  /// detect cycle) are cloned from `representative`. Only valid for
  /// experiments a PrunePlan proved equivalent to the representative.
  campaign::ExperimentOutcome synthesizeOutcome(
      const CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index,
      const campaign::ExperimentOutcome& representative) override;

  /// Recover from a link failure that may have abandoned a reconfiguration
  /// session mid-write, or from a failed configuration audit: re-download
  /// the full configuration file on a quiet link (fault model suspended,
  /// meter reset afterwards), the way a real host re-initializes a flaky
  /// board.
  void recover() override;

  /// `detectCycleOut`, when non-null, receives the first cycle whose
  /// observed outputs diverge from the golden run (-1 if they never do) -
  /// the fault-latency numerator for the analytics histograms.
  Outcome runExperiment(FaultModel model, TargetClass cls,
                        std::uint32_t target, std::uint64_t injectCycle,
                        double durationCycles, common::Rng& rng,
                        double* modeledSeconds = nullptr,
                        bits::TransferMeter* meterOut = nullptr,
                        std::int64_t* detectCycleOut = nullptr);

  /// Table 4 probe: pulse one LUT for a single cycle at `cycle` and report
  /// every architectural register whose value diverges from the golden run
  /// on the next clock edge.
  std::vector<RegisterEffect> multiBitFlipProbe(std::uint32_t lutIndex,
                                                std::uint64_t cycle);

  /// Extension (paper Section 8, "the occurrence of multiple bit-flips"):
  /// flip `multiplicity` distinct flip-flops simultaneously. The natural
  /// mechanism is the GSR path - one state read-back, one set/reset-mux
  /// rewrite covering all targets, one global pulse - so an MBU costs the
  /// same reconfiguration traffic as a single GSR bit-flip.
  Outcome runMultipleBitFlipExperiment(
      std::span<const std::uint32_t> flopTargets, std::uint64_t injectCycle,
      double* modeledSeconds = nullptr);

  // --- introspection -------------------------------------------------------
  const Observation& golden() const { return golden_; }
  /// Modeled one-time setup cost (bitstream download).
  double setupSeconds() const { return setupSeconds_; }
  const synth::Implementation& implementation() const { return impl_; }
  fpga::Device& device() { return dev_; }
  std::uint64_t runCycles() const { return runCycles_; }
  const FadesOptions& options() const { return opt_; }

 private:
  friend class PermanentFaults;  // the future-work extension shares the rig

  // Injection state carried from inject to removal.
  struct ActiveFault {
    FaultModel model{};
    TargetClass cls{};
    std::uint32_t target = 0;
    std::uint16_t originalTable = 0;
    fpga::CbCoord cb{};
    std::vector<std::pair<std::size_t, bool>> restoreBits;
    bool needsRemoval = false;
    bool indetValue = false;
    /// Sub-cycle faults: injection and removal ride one reconfiguration
    /// pass (Section 6.2: pulses under one cycle took ~755 s instead of
    /// ~1520 s because a single pass suffices).
    bool subCycle = false;
  };

  void inject(ActiveFault& fault, common::Rng& rng);
  void remove(ActiveFault& fault);
  void oscillate(ActiveFault& fault, common::Rng& rng);
  /// GSR path (Section 4.1): read back every flip-flop, program each one's
  /// set/reset mux with its current state - `targets` inverted - pulse the
  /// global line once and put the mux selections back. One pass covers any
  /// number of targets.
  void flipViaGsr(std::span<const std::uint32_t> targets);
  /// Breadth-first detour through unused wire segments from `from` to `to`,
  /// never closing `forbiddenBit` nor entering `avoid`: the (transistor bit,
  /// node) hops walked back from `to`, or nothing when the search (capped
  /// at 6000 queued nodes) finds no path.
  std::vector<std::pair<std::size_t, std::uint32_t>> detour(
      std::uint32_t from, std::uint32_t to, std::size_t forbiddenBit,
      const std::unordered_set<std::uint32_t>& avoid) const;

  // The experiment flow of Figure 1, shared by every experiment kind.
  /// New experiment: reset the meter and charge the reset to the initial
  /// state plus the output-trace upload.
  void beginExperiment();
  /// Raise LinkError, counted in fades.config_audit_failures, unless the
  /// logic plane is the downloaded one. Host-side: charges nothing.
  void auditConfiguration(const char* when);
  /// One observed clock cycle: records the first cycle whose outputs leave
  /// the golden trace in `detectCycle` (-1 until then).
  void stepObserved(std::int64_t& detectCycle);
  /// Re-decide whether plane-B word `w` differs from the golden mirror.
  void recheckMemoryWord(std::uint32_t w);
  /// Whether the replica is provably back on the golden run: downloaded
  /// configuration, no memory word off the golden mirror, and compiled
  /// flip-flops and read latches equal to the trace at this cycle. Previous
  /// D values need not match: runExperiment enables timing only on a design
  /// no flip-flop of which is late, so under the downloaded configuration no
  /// previous D is captured again.
  bool rejoinedGoldenRun();
  /// Observe to the end of the workload and classify. Once the trace has
  /// diverged the outcome is Failure; once the replica is back on the
  /// golden run it is Silent. Either way the rest of the run and the final
  /// state read-back are charged without being executed.
  Outcome observeToEnd(std::int64_t& detectCycle);
  /// Close an experiment: its modeled seconds (the meter since
  /// beginExperiment, the workload at the FPGA clock and the host's share),
  /// the outcome counters and fpga.settles.
  double finishExperiment(Outcome outcome);

  std::uint64_t outputWord() const;
  void captureFinalStateViaPort(Observation& obs);
  void flushSettles();

  fpga::Device& dev_;
  const synth::Implementation& impl_;
  std::uint64_t runCycles_;
  FadesOptions opt_;
  bits::ConfigPort port_;

  Observation golden_;
  double setupSeconds_ = 0;

  /// The golden trace, recorded with the golden run: enough to load any
  /// cycle exactly (locate) and to recognize it (rejoinedGoldenRun).
  struct GoldenWrite {
    std::uint32_t word = 0;  // plane-B storage word
    std::uint64_t value = 0;
  };
  struct GoldenTrace {
    common::BitVector memory0;  // the memory plane at cycle 0
    /// Per cycle, rowWords words: fpga::Device::appendPackedState.
    std::vector<std::uint64_t> rows;
    std::size_t rowWords = 0;
    /// The plane-B words clock edge c (cycle c to c + 1) wrote are
    /// writes[writeStart[c] .. writeStart[c + 1]).
    std::vector<GoldenWrite> writes;
    std::vector<std::size_t> writeStart;
  };
  GoldenTrace trace_;
  /// The golden state locate() loads: cycle 0's state (the trace row
  /// overrides flip-flops and latches) with the golden memory plane of
  /// mirror_.cycle, which rejoinedGoldenRun() advances to the device's.
  fpga::DeviceState mirror_;
  /// The plane-B words where the device differs from the mirror as of the
  /// last rejoinedGoldenRun().
  std::vector<std::uint32_t> memorySuspects_;

  // Location-map derived indexes.
  std::vector<unsigned> usedCaptureCols_;  // columns containing used FFs
  std::vector<unsigned> usedBramBlocks_;
  std::unordered_set<std::uint32_t> usedNodes_;  // routing nodes in use
  std::uint64_t fullStateReadBytes_ = 0;         // per final-state readback
  // (pad, bit in outputWord()) of every observed output-port pad.
  std::vector<std::pair<unsigned, unsigned>> observedPads_;

  // Registry instruments, resolved once so the per-experiment updates are
  // plain relaxed atomic adds.
  obs::Counter& ctrFailures_;
  obs::Counter& ctrLatents_;
  obs::Counter& ctrSilents_;
  obs::Histogram& modeledSecondsHist_;
  // fpga.settles mirror of dev_.settles(), flushed as a delta after the
  // golden run and at the end of every experiment and probe.
  obs::Counter& ctrSettles_;
  std::uint64_t settlesFlushed_ = 0;
  obs::Counter& ctrAuditFailures_;
};

/// Engine factory for campaign::ParallelCampaignRunner: every call builds a
/// FadesTool that owns a fresh Device, configured from the shared
/// (immutable) implementation; each replica pays the one-time setup -
/// bitstream download and golden run - in its own thread. `impl` is
/// captured by reference and must outlive the runner. `deviceSpec`
/// overrides the implementation's device spec (e.g. a delay-calibrated
/// clock period); pass nothing to use impl.spec.
campaign::EngineFactory fadesEngineFactory(
    const synth::Implementation& impl, std::uint64_t runCycles,
    FadesOptions options, std::optional<fpga::DeviceSpec> deviceSpec = {});

}  // namespace fades::core
