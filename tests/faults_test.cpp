// Fault-injection layer tests: campaign vocabulary, the VFIT baseline, the
// FADES injectors, and cross-tool agreement on identical faults.
#include <gtest/gtest.h>

#include <memory>

#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "core/lut_circuit.hpp"
#include "core/permanent.hpp"
#include "fades_golden.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace fades {
namespace {

using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::FaultModel;
using campaign::Observation;
using campaign::Outcome;
using campaign::TargetClass;
using common::Rng;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;
using vfit::VfitOptions;
using vfit::VfitTool;

// ---------------------------------------------------------- campaign -----

TEST(Campaign, ClassifyTrichotomy) {
  Observation golden{{1, 2, 3}, {0, 1}, {5}};
  EXPECT_EQ(campaign::classify(golden, golden), Outcome::Silent);
  Observation failOut = golden;
  failOut.outputs[1] = 9;
  EXPECT_EQ(campaign::classify(golden, failOut), Outcome::Failure);
  Observation latent = golden;
  latent.finalFlops[0] = 1;
  EXPECT_EQ(campaign::classify(golden, latent), Outcome::Latent);
  Observation latentMem = golden;
  latentMem.finalMemory[0] = 6;
  EXPECT_EQ(campaign::classify(golden, latentMem), Outcome::Latent);
  // Output divergence dominates state divergence.
  Observation both = failOut;
  both.finalFlops[0] = 1;
  EXPECT_EQ(campaign::classify(golden, both), Outcome::Failure);
}

TEST(Campaign, DrawExperimentPinsTheStreamProtocol) {
  // Target, instant and duration come from streamSeed(seed, 131*i +
  // attempt) in that order; every injector and the prune plan depend on
  // these exact values, so a change to the protocol fails here first.
  CampaignSpec spec;
  spec.seed = 2006;
  spec.band = DurationBand::shortBand();
  std::vector<std::uint32_t> pool;
  for (std::uint32_t k = 0; k < 97; ++k) pool.push_back(7 * k + 5);
  struct Pinned {
    unsigned index, attempt;
    std::uint32_t target;
    std::uint64_t injectCycle;
    double duration, next;
  };
  const Pinned pinned[] = {
      {0, 0, 306, 263, 9.6988773731676687, 0.76484047424294799},
      {1, 0, 236, 959, 7.3105911734325995, 0.38736904525371896},
      {2, 0, 257, 958, 6.8225708380341583, 0.92691615485297929},
      {3, 0, 418, 1466, 5.274917402761174, 0.92523021665355221},
      {0, 1, 68, 402, 9.251636345790601, 0.96348081035459787},
  };
  for (const Pinned& p : pinned) {
    auto d = campaign::drawExperiment(spec, pool, 1601, p.index, p.attempt);
    const std::string what =
        "index " + std::to_string(p.index) + " attempt " +
        std::to_string(p.attempt);
    EXPECT_EQ(d.target, p.target) << what;
    EXPECT_EQ(d.injectCycle, p.injectCycle) << what;
    EXPECT_EQ(d.duration, p.duration) << what;
    EXPECT_EQ(d.rng.uniform01(), p.next) << what;  // left after three draws
  }
}

TEST(Campaign, ActiveCyclesDrawsOnlyForSubCycleFaults) {
  // Below one cycle: one draw, and an edge is reached iff it falls under the
  // duration (the first uniform01() of seeds 1 and 2 is 0.703 and 0.102).
  struct SubCycle {
    double duration;
    std::uint64_t seed, expected;
  };
  for (const SubCycle& t : {SubCycle{0.3, 1, 0}, SubCycle{0.3, 2, 1},
                            SubCycle{0.999, 1, 1}}) {
    Rng rng(t.seed), oneDrawOn(t.seed);
    EXPECT_EQ(campaign::activeCycles(t.duration, rng), t.expected)
        << t.duration << " seed " << t.seed;
    oneDrawOn();
    EXPECT_EQ(rng(), oneDrawOn()) << t.duration << " seed " << t.seed;
  }
  // From one cycle on: the duration rounded half up, and no draw.
  const std::pair<double, std::uint64_t> whole[] = {
      {1.0, 1}, {4.49, 4}, {4.5, 5}, {10.0, 10}};
  for (const auto& [duration, expected] : whole) {
    Rng rng(1), untouched(1);
    EXPECT_EQ(campaign::activeCycles(duration, rng), expected) << duration;
    EXPECT_EQ(rng(), untouched()) << duration;
  }
}

TEST(Campaign, PaperDurationBands) {
  const auto bands = DurationBand::paperBands();
  ASSERT_EQ(bands.size(), 3u);
  EXPECT_EQ(bands[0].label, "<1");
  EXPECT_EQ(bands[1].minCycles, 1.0);
  EXPECT_EQ(bands[1].maxCycles, 10.0);
  EXPECT_EQ(bands[2].minCycles, 11.0);
  EXPECT_EQ(bands[2].maxCycles, 20.0);
}

TEST(Campaign, ResultAccounting) {
  campaign::CampaignResult r;
  r.add(Outcome::Failure, 1.0);
  r.add(Outcome::Failure, 2.0);
  r.add(Outcome::Silent, 3.0);
  r.add(Outcome::Latent, 4.0);
  EXPECT_EQ(r.total(), 4u);
  EXPECT_DOUBLE_EQ(r.failurePct(), 50.0);
  EXPECT_DOUBLE_EQ(r.latentPct(), 25.0);
  EXPECT_NEAR(r.modeledSeconds.mean(), 2.5, 1e-12);
}

// --------------------------------------------------------- lut circuit -----

TEST(LutCircuit, InvertedOutputIsComplement) {
  core::ExtractedCircuit c(0xCAFE);
  EXPECT_EQ(core::ExtractedCircuit::tableWithInvertedOutput(0xCAFE),
            static_cast<std::uint16_t>(~0xCAFE));
}

TEST(LutCircuit, InvertedInputPermutesTable) {
  // AND of i0,i1: table 0x8888 (bits where i0&i1... enumerate: idx with
  // i0=1,i1=1: 3,7,11,15 -> 0x8888).
  const std::uint16_t andTable = 0x8888;
  const auto inv0 =
      core::ExtractedCircuit::tableWithInvertedInput(andTable, 0);
  // NOT(i0) AND i1: idx with i0=0,i1=1: 2,6,10,14 -> 0x4444.
  EXPECT_EQ(inv0, 0x4444);
}

class LutCircuitProperty : public ::testing::TestWithParam<int> {};

TEST_P(LutCircuitProperty, ExtractionIsFaithfulAndLinesFlipSomething) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const auto table = static_cast<std::uint16_t>(rng.below(0x10000));
    core::ExtractedCircuit c(table);
    EXPECT_EQ(c.table(), table);
    // Inverting the same internal line twice must round-trip; inverting it
    // once must change the table (a BDD node always influences some
    // minterm) unless the function is constant.
    for (unsigned line = 0; line < c.internalLineCount(); ++line) {
      const auto faulted = c.tableWithInvertedInternalLine(line);
      EXPECT_NE(faulted, table) << "line " << line << " table " << table;
    }
    // Candidate API covers output + 4 inputs + internals.
    EXPECT_EQ(c.candidateLineCount(), 5 + c.internalLineCount());
    EXPECT_EQ(c.tableWithFaultedLine(0),
              static_cast<std::uint16_t>(~table));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LutCircuitProperty, ::testing::Range(1, 5));

// -------------------------------------------------------- mini system -----

/// Small multi-unit design used by fast fault tests:
///  - Registers: 8-bit LFSR
///  - Fsm:       4-bit counter
///  - Alu:       sum = lfsr + counter
///  - Ram:       16x8 write-only log of LFSR values (never read back)
struct MiniDesign {
  netlist::Netlist nl;
  synth::Implementation impl;
  std::uint64_t cycles = 64;

  static netlist::Netlist build() {
    rtl::Builder b;
    b.setUnit(Unit::Registers);
    rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
    b.setUnit(Unit::Fsm);
    rtl::Register cnt = b.makeRegister("cnt", 4, 0);
    b.setUnit(Unit::Registers);
    auto fb = b.lxor(lfsr.q[7],
                     b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
    rtl::Bus next{fb};
    for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
    b.connect(lfsr, next);
    b.setUnit(Unit::Fsm);
    b.connect(cnt, b.increment(cnt.q));
    b.setUnit(Unit::Alu);
    auto sum = b.add(lfsr.q, b.zeroExtend(cnt.q, 8), {});
    b.setUnit(Unit::Ram);
    b.ram("log", 4, 8, cnt.q, lfsr.q, b.one());
    b.output("out", sum.sum);
    return b.finish();
  }

  MiniDesign()
      : nl(build()), impl(synth::implement(nl, fpga::DeviceSpec::small())) {}

  static const MiniDesign& instance() {
    static MiniDesign d;
    return d;
  }
};

FadesOptions miniFadesOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

VfitOptions miniVfitOptions() {
  VfitOptions o;
  o.observedOutputs = {"out"};
  return o;
}

// --------------------------------------------------------------- VFIT -----

TEST(Vfit, FlopBitFlipCausesImmediateFailure) {
  const auto& d = MiniDesign::instance();
  VfitTool tool(d.nl, d.cycles, miniVfitOptions());
  const auto flops = vfit::flopTargets(d.nl, Unit::Registers);
  ASSERT_EQ(flops.size(), 8u);  // the LFSR bits
  Rng rng(1);
  double seconds = 0;
  const auto o =
      tool.runExperiment(FaultModel::BitFlip, TargetClass::SequentialFF,
                         flops[0].value, 10, 1.0, rng, &seconds);
  // The LFSR feeds the output combinationally: divergence is immediate.
  EXPECT_EQ(o, Outcome::Failure);
  EXPECT_GT(seconds, vfit::VfitTool::kSecondsFixedPerExperiment);
}

TEST(Vfit, RamBitFlipIsLatentOrSilentNeverFailure) {
  const auto& d = MiniDesign::instance();
  VfitTool tool(d.nl, d.cycles, miniVfitOptions());
  Rng rng(2);
  // The RAM log is never read: flips can linger (Latent) or be overwritten
  // (Silent) but cannot reach the outputs.
  int latent = 0, silent = 0;
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t target =
        (0u << 24) | (static_cast<std::uint32_t>(rng.below(16)) << 8) |
        static_cast<std::uint32_t>(rng.below(8));
    const auto o =
        tool.runExperiment(FaultModel::BitFlip, TargetClass::MemoryBlockBit,
                           target, rng.below(d.cycles), 1.0, rng);
    EXPECT_NE(o, Outcome::Failure);
    latent += (o == Outcome::Latent);
    silent += (o == Outcome::Silent);
  }
  EXPECT_GT(latent, 0);
  EXPECT_GT(silent, 0);
}

TEST(Vfit, DelayUnsupportedLikeThePaper) {
  const auto& d = MiniDesign::instance();
  VfitTool tool(d.nl, d.cycles, miniVfitOptions());
  EXPECT_FALSE(tool.supports(FaultModel::Delay));
  Rng rng(3);
  EXPECT_THROW(tool.runExperiment(FaultModel::Delay,
                                  TargetClass::CombinationalLine, 0, 5, 1.0,
                                  rng),
               common::FadesError);
}

TEST(Vfit, DelayCampaignAbortsInsteadOfQuarantining) {
  // An unsupported model is the caller's error, not a transient one: the
  // runner aborts instead of retrying and quarantining every experiment.
  // Same for the autonomous backend, which shares VFIT's fault semantics.
  const auto& d = MiniDesign::instance();
  core::AutonomousOptions aOpt;
  aOpt.observedOutputs = {"out"};
  CampaignSpec spec;
  spec.model = FaultModel::Delay;
  spec.targets = TargetClass::SequentialLine;
  spec.experiments = 5;
  const obs::Counter& quarantined =
      obs::Registry::global().counter("campaign.quarantined");
  for (const auto& factory :
       {vfit::vfitEngineFactory(d.nl, d.cycles, miniVfitOptions()),
        core::autonomousEngineFactory(d.nl, d.cycles, aOpt)}) {
    const std::uint64_t before = quarantined.value();
    try {
      campaign::ParallelCampaignRunner(factory).run(spec);
      ADD_FAILURE() << "a delay campaign ran to completion";
    } catch (const common::FadesError& e) {
      EXPECT_EQ(e.kind(), common::ErrorKind::InvalidArgument) << e.what();
    }
    EXPECT_EQ(quarantined.value(), before);
  }
}

TEST(Vfit, CostIsFlatAcrossModelsAndDurations) {
  // Paper Section 6.2: VFIT's time is dominated by model simulation and is
  // "very similar for any type and length of the studied fault models".
  const auto& d = MiniDesign::instance();
  VfitTool tool(d.nl, d.cycles, miniVfitOptions());
  Rng rng(4);
  double sBitflip = 0, sPulseShort = 0, sPulseLong = 0;
  const auto sig = vfit::signalTargets(d.nl, Unit::Alu);
  ASSERT_FALSE(sig.empty());
  tool.runExperiment(FaultModel::BitFlip, TargetClass::SequentialFF, 0, 5,
                     1.0, rng, &sBitflip);
  tool.runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                     sig[0].value, 5, 2.0, rng, &sPulseShort);
  tool.runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                     sig[0].value, 5, 18.0, rng, &sPulseLong);
  EXPECT_NEAR(sBitflip, sPulseShort, 0.15 * sBitflip);
  EXPECT_NEAR(sPulseShort, sPulseLong, 0.15 * sPulseShort);
}

TEST(Vfit, CampaignIsDeterministic) {
  const auto& d = MiniDesign::instance();
  VfitTool tool(d.nl, d.cycles, miniVfitOptions());
  CampaignSpec spec;
  spec.model = FaultModel::BitFlip;
  spec.targets = TargetClass::SequentialFF;
  spec.unit = static_cast<int>(Unit::Registers);
  spec.experiments = 40;
  spec.seed = 77;
  const auto r1 = campaign::runCampaign(spec, {&tool});
  const auto r2 = campaign::runCampaign(spec, {&tool});
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.latents, r2.latents);
  EXPECT_EQ(r1.silents, r2.silents);
  EXPECT_EQ(r1.total(), 40u);
}

// -------------------------------------------------------------- FADES -----

struct FadesRig {
  std::unique_ptr<fpga::Device> device;
  std::unique_ptr<FadesTool> tool;

  explicit FadesRig(FadesOptions opt = miniFadesOptions()) {
    const auto& d = MiniDesign::instance();
    device = std::make_unique<fpga::Device>(d.impl.spec);
    tool = std::make_unique<FadesTool>(*device, d.impl, d.cycles, opt);
  }
};

TEST(Fades, GoldenRunMatchesSimulator) {
  const auto& d = MiniDesign::instance();
  FadesRig rig;
  sim::Simulator simulator(d.nl);
  for (std::uint64_t c = 0; c < d.cycles; ++c) {
    EXPECT_EQ(rig.tool->golden().outputs[c], simulator.portValue("out"));
    simulator.step();
  }
}

TEST(Fades, FlopBitFlipViaLsrMatchesVfitOutcomes) {
  const auto& d = MiniDesign::instance();
  FadesRig rig;
  VfitTool vfitTool(d.nl, d.cycles, miniVfitOptions());

  // Same flop, same instant, both tools: identical classification.
  for (const char* name :
       {"lfsr[0]", "lfsr[3]", "lfsr[7]", "cnt[0]", "cnt[3]"}) {
    const auto* site = d.impl.findFlop(name);
    ASSERT_NE(site, nullptr) << name;
    std::uint32_t fadesTarget = 0;
    for (std::uint32_t i = 0; i < d.impl.flops.size(); ++i) {
      if (d.impl.flops[i].name == name) fadesTarget = i;
    }
    const auto vfitTarget = d.nl.findFlop(name);
    ASSERT_TRUE(vfitTarget.has_value());
    for (std::uint64_t cycle : {3ull, 17ull, 40ull}) {
      Rng r1(9), r2(9);
      const auto of = rig.tool->runExperiment(
          FaultModel::BitFlip, TargetClass::SequentialFF, fadesTarget, cycle,
          1.0, r1);
      const auto ov = vfitTool.runExperiment(
          FaultModel::BitFlip, TargetClass::SequentialFF, vfitTarget->value,
          cycle, 1.0, r2);
      EXPECT_EQ(of, ov) << name << " @" << cycle;
    }
  }
}

TEST(Fades, GsrAndLsrBitFlipAgreeButGsrMovesMoreData) {
  FadesOptions lsrOpt = miniFadesOptions();
  FadesOptions gsrOpt = miniFadesOptions();
  gsrOpt.bitFlipVia = core::BitFlipVia::Gsr;
  FadesRig lsr(lsrOpt), gsr(gsrOpt);

  bits::TransferMeter lsrMeter, gsrMeter;
  Rng r1(5), r2(5);
  double sLsr = 0, sGsr = 0;
  const auto o1 = lsr.tool->runExperiment(FaultModel::BitFlip,
                                          TargetClass::SequentialFF, 2, 20,
                                          1.0, r1, &sLsr, &lsrMeter);
  const auto o2 = gsr.tool->runExperiment(FaultModel::BitFlip,
                                          TargetClass::SequentialFF, 2, 20,
                                          1.0, r2, &sGsr, &gsrMeter);
  EXPECT_EQ(o1, o2);
  // Section 4.1: the GSR approach transfers much more information.
  EXPECT_GT(gsrMeter.bytesToDevice + gsrMeter.bytesFromDevice,
            2 * (lsrMeter.bytesToDevice + lsrMeter.bytesFromDevice));
  EXPECT_GT(sGsr, sLsr);
}

TEST(Fades, RemovableFaultsRestoreTheConfiguration) {
  const auto& d = MiniDesign::instance();
  FadesRig rig;
  Rng rng(11);
  const auto luts = rig.tool->targets(FaultModel::Pulse,
                                      TargetClass::CombinationalLut,
                                      Unit::Alu);
  rig.tool->runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                          luts[0], 12, 5.0, rng);
  EXPECT_EQ(rig.device->readbackBitstream().logic, d.impl.bitstream.logic);

  rig.tool->runExperiment(FaultModel::Indetermination,
                          TargetClass::SequentialFF, 1, 8, 4.0, rng);
  EXPECT_EQ(rig.device->readbackBitstream().logic, d.impl.bitstream.logic);

  rig.tool->runExperiment(FaultModel::Delay, TargetClass::CombinationalLine,
                          rig.tool->targets(FaultModel::Delay,
                                            TargetClass::CombinationalLine,
                                            Unit::None)[0],
                          9, 6.0, rng);
  EXPECT_EQ(rig.device->readbackBitstream().logic, d.impl.bitstream.logic);

  // Bit-flips persist in STATE, never in configuration.
  rig.tool->runExperiment(FaultModel::BitFlip, TargetClass::SequentialFF, 0,
                          5, 1.0, rng);
  EXPECT_EQ(rig.device->readbackBitstream().logic, d.impl.bitstream.logic);
}

TEST(Fades, MemoryBitFlipNeverFailsOnWriteOnlyLog) {
  FadesRig rig;
  Rng rng(13);
  const auto targets = rig.tool->targets(
      FaultModel::BitFlip, TargetClass::MemoryBlockBit, Unit::None);
  ASSERT_FALSE(targets.empty());
  int latent = 0;
  for (int i = 0; i < 16; ++i) {
    const auto o = rig.tool->runExperiment(
        FaultModel::BitFlip, TargetClass::MemoryBlockBit,
        targets[rng.below(targets.size())], rng.below(60), 1.0, rng);
    EXPECT_NE(o, Outcome::Failure);
    latent += (o == Outcome::Latent);
  }
  EXPECT_GT(latent, 0);
}

TEST(Fades, PulseSubCycleCheaperThanLongPulse) {
  FadesRig rig;
  Rng rng(17);
  const auto luts = rig.tool->targets(FaultModel::Pulse,
                                      TargetClass::CombinationalLut,
                                      Unit::None);
  bits::TransferMeter mShort, mLong;
  double sShort = 0, sLong = 0;
  rig.tool->runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                          luts[0], 10, 0.4, rng, &sShort, &mShort);
  rig.tool->runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                          luts[0], 10, 8.0, rng, &sLong, &mLong);
  // Section 6.2: durations under one cycle need a single reconfiguration
  // pass; longer pulses need two.
  EXPECT_EQ(mShort.sessions + 1, mLong.sessions);
  EXPECT_LT(sShort, sLong);
}

TEST(Fades, DelayCostsDominateViaFullDownload) {
  FadesRig rig;
  Rng rng(19);
  double sDelay = 0, sFlip = 0;
  bits::TransferMeter mDelay;
  const auto lines = rig.tool->targets(
      FaultModel::Delay, TargetClass::SequentialLine, Unit::None);
  rig.tool->runExperiment(FaultModel::Delay, TargetClass::SequentialLine,
                          lines[0], 15, 5.0, rng, &sDelay, &mDelay);
  rig.tool->runExperiment(FaultModel::BitFlip, TargetClass::SequentialFF, 0,
                          15, 1.0, rng, &sFlip);
  // On this tiny test device the full image is small, so only demand a
  // strict ordering; the V1000-scale benches verify the large gap.
  EXPECT_GT(sDelay, sFlip);
  EXPECT_GE(mDelay.bytesToDevice,
            2 * rig.device->layout().totalConfigBytes());
}

TEST(Fades, OscillatingIndeterminationCostsMore) {
  FadesOptions fixed = miniFadesOptions();
  FadesOptions osc = miniFadesOptions();
  osc.oscillatingIndetermination = true;
  FadesRig rigF(fixed), rigO(osc);
  Rng r1(23), r2(23);
  double sF = 0, sO = 0;
  rigF.tool->runExperiment(FaultModel::Indetermination,
                           TargetClass::SequentialFF, 3, 10, 15.0, r1, &sF);
  rigO.tool->runExperiment(FaultModel::Indetermination,
                           TargetClass::SequentialFF, 3, 10, 15.0, r2, &sO);
  EXPECT_GT(sO, 1.5 * sF);  // Section 6.2: ~4605 s vs ~1065 s
}

TEST(Fades, CampaignDeterministicAndComplete) {
  FadesRig rig;
  CampaignSpec spec;
  spec.model = FaultModel::Pulse;
  spec.targets = TargetClass::CombinationalLut;
  spec.unit = static_cast<int>(Unit::Alu);
  spec.band = DurationBand::shortBand();
  spec.experiments = 25;
  spec.seed = 99;
  const auto r1 = campaign::runCampaign(spec, {rig.tool.get()});
  const auto r2 = campaign::runCampaign(spec, {rig.tool.get()});
  EXPECT_EQ(r1.total(), 25u);
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.latents, r2.latents);
  EXPECT_EQ(r1.records.size(), 25u);
}

TEST(Fades, CbInputPulseTargetsExist) {
  FadesRig rig;
  const auto targets = rig.tool->targets(
      FaultModel::Pulse, TargetClass::CbInputLine, Unit::None);
  // At least some FFs take their data through the routed bypass pin.
  EXPECT_FALSE(targets.empty());
  Rng rng(29);
  const auto o = rig.tool->runExperiment(
      FaultModel::Pulse, TargetClass::CbInputLine, targets[0], 20, 3.0, rng);
  (void)o;  // any outcome is legal; the mechanism must just not corrupt
  EXPECT_EQ(rig.device->readbackBitstream().logic,
            MiniDesign::instance().impl.bitstream.logic);
}

TEST(Fades, MultiBitFlipProbeFindsRegisterEffects) {
  FadesRig rig;
  const auto luts =
      rig.tool->targets(FaultModel::Pulse, TargetClass::CombinationalLut,
                        Unit::Registers);
  ASSERT_FALSE(luts.empty());
  bool anyEffect = false;
  for (auto lut : luts) {
    const auto effects = rig.tool->multiBitFlipProbe(lut, 20);
    for (const auto& e : effects) {
      EXPECT_NE(e.golden, e.faulty);
      anyEffect = true;
    }
  }
  // Pulsing the LFSR's feedback cones must disturb at least one register.
  EXPECT_TRUE(anyEffect);
}

// ---------------------------------------------- permanent faults (ext) -----

TEST(Permanent, StuckAtFlopForcesLevelForWholeRun) {
  FadesRig rig;
  core::PermanentFaults permanent(*rig.tool);
  Rng rng(41);
  // Stuck-at on an LFSR flip-flop: the register can never hold its proper
  // sequence, so the combinational output must diverge.
  std::uint32_t lfsrBit0 = 0;
  const auto& impl = MiniDesign::instance().impl;
  for (std::uint32_t i = 0; i < impl.flops.size(); ++i) {
    if (impl.flops[i].name == "lfsr[0]") lfsrBit0 = i;
  }
  const auto o = permanent.runExperiment(
      core::PermanentFaultModel::StuckAt1,
      lfsrBit0 | core::PermanentFaults::kFlopFlag, rng);
  EXPECT_EQ(o, campaign::Outcome::Failure);
  // Configuration restored for the next experiment.
  EXPECT_EQ(rig.device->readbackBitstream().logic,
            MiniDesign::instance().impl.bitstream.logic);
}

TEST(Permanent, StuckAtLutOnConstantlyActiveLogicFails) {
  FadesRig rig;
  core::PermanentFaults permanent(*rig.tool);
  Rng rng(43);
  const auto pool =
      permanent.targets(core::PermanentFaultModel::StuckAt0, Unit::Alu);
  int failures = 0;
  for (std::size_t k = 0; k < pool.size() && k < 12; ++k) {
    if ((pool[k] & core::PermanentFaults::kFlopFlag) != 0) continue;
    const auto o = permanent.runExperiment(core::PermanentFaultModel::StuckAt0,
                                           pool[k], rng);
    failures += (o == campaign::Outcome::Failure);
  }
  EXPECT_GT(failures, 0);  // the adder output bits are always observed
}

TEST(Permanent, OpenAndStuckOpenSplitTheNet) {
  FadesRig rig;
  core::PermanentFaults permanent(*rig.tool);
  Rng rng(47);
  for (const auto model : {core::PermanentFaultModel::OpenLine,
                           core::PermanentFaultModel::StuckOpen}) {
    const auto pool = permanent.targets(model, Unit::None);
    ASSERT_FALSE(pool.empty());
    const auto o =
        permanent.runExperiment(model, pool[rng.below(pool.size())], rng);
    (void)o;  // outcome depends on the net; restoration is the invariant
    EXPECT_EQ(rig.device->readbackBitstream().logic,
              MiniDesign::instance().impl.bitstream.logic)
        << core::toString(model);
  }
}

TEST(Permanent, CampaignCoversAllModelsDeterministically) {
  FadesRig rig;
  core::PermanentFaults permanent(*rig.tool);
  for (const auto model :
       {core::PermanentFaultModel::StuckAt0,
        core::PermanentFaultModel::StuckAt1,
        core::PermanentFaultModel::OpenLine,
        core::PermanentFaultModel::StuckOpen,
        core::PermanentFaultModel::Bridging}) {
    core::PermanentCampaignSpec spec;
    spec.model = model;
    spec.experiments = 8;
    spec.seed = 51;
    const auto r1 = permanent.runCampaign(spec);
    const auto r2 = permanent.runCampaign(spec);
    EXPECT_EQ(r1.total(), 8u) << core::toString(model);
    EXPECT_EQ(r1.failures, r2.failures) << core::toString(model);
  }
  // After everything, the configuration is pristine.
  EXPECT_EQ(rig.device->readbackBitstream().logic,
            MiniDesign::instance().impl.bitstream.logic);
}

TEST(Fades, IndeterminationForcesValueForWholeDuration) {
  // During the fault the FF output is pinned to the random level: check
  // via the sequential-line observation that repeated runs with different
  // seeds give both polarities.
  FadesRig rig;
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const auto o = rig.tool->runExperiment(FaultModel::Indetermination,
                                           TargetClass::SequentialFF,
                                           /*lfsr[0] site*/ 0, 6, 12.0, rng);
    failures += (o == Outcome::Failure);
  }
  EXPECT_GT(failures, 0);
}

// ----------------------------------------- MC8051 early stop and locate -

/// The paper's campaign set-up: the MC8051 running Bubblesort on the
/// Virtex-1000-class device.
struct Mc8051Design {
  std::uint64_t cycles = 0;
  netlist::Netlist nl;
  synth::Implementation impl;

  Mc8051Design() {
    const auto w = mc8051::bubblesort(6);
    cycles = w.cycles;
    nl = mc8051::buildCore(w.bytes);
    impl = synth::implement(nl, fpga::DeviceSpec::virtex1000Like());
  }
  static const Mc8051Design& instance() {
    static Mc8051Design d;
    return d;
  }
};

unsigned mc8051EarlyStops(FaultModel model, TargetClass cls,
                          unsigned experiments = 40) {
  CampaignSpec spec;
  spec.model = model;
  spec.targets = cls;
  spec.band = DurationBand::shortBand();
  spec.seed = 2006;
  spec.experiments = experiments;
  FadesOptions options;  // observes p0 and p1, as campaign_8051 does
  const auto& d = Mc8051Design::instance();
  return goldenref::expectEarlyStopsExact(d.impl, d.cycles, options, spec);
}

TEST(EarlyStopEquivalence, Mc8051PulseLut) {
  EXPECT_GT(mc8051EarlyStops(FaultModel::Pulse, TargetClass::CombinationalLut),
            0u);
}

TEST(EarlyStopEquivalence, Mc8051BitFlipMemory) {
  // Most flipped RAM bits are never rewritten (Latent): few runs stop.
  EXPECT_GT(mc8051EarlyStops(FaultModel::BitFlip,
                             TargetClass::MemoryBlockBit, 200),
            0u);
}

TEST(EarlyStopEquivalence, Mc8051DelaySeqLine) {
  EXPECT_GT(mc8051EarlyStops(FaultModel::Delay, TargetClass::SequentialLine),
            0u);
}

TEST(EarlyStopEquivalence, Mc8051IndeterminationFlop) {
  EXPECT_GT(
      mc8051EarlyStops(FaultModel::Indetermination, TargetClass::SequentialFF),
      0u);
}

TEST(LocateExactness, Mc8051SampleOfCycles) {
  // Cycles at the start, on either side of 128 and across the run, each
  // located after a LUT pulse on the same replica.
  const auto& d = Mc8051Design::instance();
  fpga::Device dev(d.impl.spec);
  FadesTool tool(dev, d.impl, d.cycles, FadesOptions{});
  const auto luts = tool.targets(FaultModel::Pulse,
                                 TargetClass::CombinationalLut, Unit::None);
  Rng rng(8);
  const std::uint64_t cycles[] = {0,   1,   2,    127,  128,
                                  129, 640, 1000, d.cycles - 2, d.cycles - 1};
  goldenref::expectLocateExact(tool, cycles, [&](std::uint64_t c) {
    tool.runExperiment(FaultModel::Pulse, TargetClass::CombinationalLut,
                       luts[(c * 37) % luts.size()], c / 2, 3.0, rng);
  });
}

}  // namespace
}  // namespace fades
