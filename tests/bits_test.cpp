#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bits/config_port.hpp"
#include "campaign/parallel.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fades_golden.hpp"
#include "fpga/device.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades::bits {
namespace {

using fpga::BramField;
using fpga::CbCoord;
using fpga::CbField;
using fpga::Device;
using fpga::DeviceSpec;
using fpga::FrameAddr;
using fpga::Plane;

TEST(ConfigPort, FrameReadWriteRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const FrameAddr f{Plane::Logic, 3, 1};
  auto bytes = port.readLogicFrame(f);
  bytes[5] = 0xA5;
  port.writeLogicFrame(f, bytes);
  const auto back = port.readLogicFrame(f);
  EXPECT_EQ(back[5], 0xA5);
}

TEST(ConfigPort, MeterCountsBytesAndOps) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  EXPECT_EQ(port.meter().readOps, 0u);

  (void)port.readLogicFrame(FrameAddr{Plane::Logic, 0, 0});
  EXPECT_EQ(port.meter().readOps, 1u);
  EXPECT_EQ(port.meter().bytesFromDevice, dev.spec().frameBytes);

  auto bytes = port.readLogicFrame(FrameAddr{Plane::Logic, 0, 0});
  port.writeLogicFrame(FrameAddr{Plane::Logic, 0, 0}, bytes);
  EXPECT_EQ(port.meter().writeOps, 1u);
  EXPECT_EQ(port.meter().bytesToDevice, dev.spec().frameBytes);

  port.pulseGsr();
  EXPECT_EQ(port.meter().commandOps, 1u);

  port.beginSession();
  EXPECT_EQ(port.meter().sessions, 1u);

  port.resetMeter();
  EXPECT_EQ(port.meter().readOps, 0u);
  EXPECT_EQ(port.meter().bytesFromDevice, 0u);
}

TEST(ConfigPort, LutHelperDoesReadModifyWriteTraffic) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{4, 4};
  port.setLutTable(cb, 0xBEEF);
  EXPECT_EQ(port.getLutTable(cb), 0xBEEF);
  // RMW traffic happened: at least one read and one write.
  EXPECT_GE(port.meter().readOps, 2u);
  EXPECT_GE(port.meter().writeOps, 1u);
  // And the device agrees bit-by-bit.
  EXPECT_EQ(dev.logicBit(dev.layout().cbLutBit(cb, 0)), true);   // 0xBEEF bit0
  EXPECT_EQ(dev.logicBit(dev.layout().cbLutBit(cb, 4)), false);  // bit4
}

TEST(ConfigPort, CbFieldHelperRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{2, 7};
  EXPECT_FALSE(port.getCbFieldBit(cb, CbField::InvLsr));
  port.setCbFieldBit(cb, CbField::InvLsr, true);
  EXPECT_TRUE(port.getCbFieldBit(cb, CbField::InvLsr));
  EXPECT_TRUE(dev.logicBit(dev.layout().cbFieldBit(cb, CbField::InvLsr)));
  port.setCbFieldBit(cb, CbField::InvLsr, false);
  EXPECT_FALSE(port.getCbFieldBit(cb, CbField::InvLsr));
}

TEST(ConfigPort, BramBitHelperRoundTrip) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  EXPECT_FALSE(port.getBramBit(1, 777));
  port.setBramBit(1, 777, true);
  EXPECT_TRUE(port.getBramBit(1, 777));
  EXPECT_TRUE(dev.bramBit(dev.layout().bramContentBit(1, 777)));
}

TEST(ConfigPort, FullBitstreamMetersWholeImage) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const auto bs = port.readbackFull();
  EXPECT_EQ(port.meter().bytesFromDevice, dev.layout().totalConfigBytes());
  port.writeFullBitstream(bs);
  EXPECT_EQ(port.meter().bytesToDevice, dev.layout().totalConfigBytes());
}

TEST(BoardLink, CostModelComposition) {
  BoardLink link;
  link.bytesPerSecond = 1e6;
  link.perOpSeconds = 0.01;
  link.perSessionSeconds = 0.2;
  TransferMeter m;
  m.bytesToDevice = 500000;
  m.bytesFromDevice = 500000;
  m.writeOps = 3;
  m.readOps = 2;
  m.commandOps = 1;
  m.sessions = 2;
  EXPECT_NEAR(link.seconds(m), 1.0 + 0.06 + 0.4, 1e-9);
}

TEST(BoardLink, MeterAccumulation) {
  TransferMeter a, b;
  a.bytesToDevice = 10;
  a.writeOps = 1;
  b.bytesToDevice = 5;
  b.sessions = 1;
  a += b;
  EXPECT_EQ(a.bytesToDevice, 15u);
  EXPECT_EQ(a.writeOps, 1u);
  EXPECT_EQ(a.sessions, 1u);
}

TEST(ConfigPort, ReadFfStateViaCapturePlane) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  // Configure a standalone FF preset to 1 and read its state back.
  const CbCoord cb{5, 6};
  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::FfUsed), true);
  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::SrMode), true);
  dev.pulseGsr();
  EXPECT_TRUE(port.readFfState(cb));
  EXPECT_GE(port.meter().captureOps, 1u);
}

// --- one write path: metering and visibility ------------------------------

TEST(ConfigPort, MeterPinnedForMixedSession) {
  // Every logical operation of a mixed session is metered exactly once:
  // LUT RMW (one frame), LUT read, CB field RMW and read, two capture reads,
  // BRAM bit RMW and read, one GSR command.
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  port.beginSession();
  port.setLutTable(CbCoord{2, 3}, 0x1234);
  (void)port.getLutTable(CbCoord{2, 3});
  port.setCbFieldBit(CbCoord{2, 3}, CbField::FfUsed, true);
  (void)port.getCbFieldBit(CbCoord{2, 3}, CbField::SrMode);
  (void)port.readCaptureFrame(1);
  (void)port.readCaptureFrame(1);
  port.setBramBit(0, 17, true);
  (void)port.getBramBit(0, 17);
  port.pulseGsr();

  const TransferMeter& m = port.meter();
  // 64-byte frames: 3 frame writes + an 8-byte GSR packet to the device;
  // 6 frame reads + 2 capture frames back.
  EXPECT_EQ(m.bytesToDevice, 200u);
  EXPECT_EQ(m.bytesFromDevice, 512u);
  EXPECT_EQ(m.writeOps, 3u);
  EXPECT_EQ(m.readOps, 6u);
  EXPECT_EQ(m.captureOps, 2u);
  EXPECT_EQ(m.commandOps, 1u);
  EXPECT_EQ(m.sessions, 1u);
  EXPECT_EQ(m.linkFaults, 0u);
  EXPECT_EQ(m.retryOps, 0u);
  EXPECT_EQ(m.retryBytes, 0u);
  EXPECT_EQ(m.retryBackoffSeconds, 0.0);
  EXPECT_EQ(port.getLutTable(CbCoord{2, 3}), 0x1234);
  EXPECT_TRUE(port.getBramBit(0, 17));

  // A LUT whose table straddles two frames (16 tracks make a 248-bit CB
  // record, so row 33's table starts 8 bits before a frame boundary): each
  // helper moves both frames, and a blind write reads neither.
  DeviceSpec tall = DeviceSpec::small();
  tall.rows = 40;
  tall.tracks = 16;
  Device tallDev(tall);
  ConfigPort tallPort(tallDev);
  const CbCoord straddling{2, 33};
  const auto& layout = tallDev.layout();
  ASSERT_FALSE(layout.frameOfLogicBit(layout.cbLutBit(straddling, 0)) ==
               layout.frameOfLogicBit(layout.cbLutBit(straddling, 15)));
  tallPort.setLutTable(straddling, 0xbeef);
  EXPECT_EQ(tallPort.meter().readOps, 2u);
  EXPECT_EQ(tallPort.meter().writeOps, 2u);
  EXPECT_EQ(tallPort.getLutTable(straddling), 0xbeef);
  EXPECT_EQ(tallPort.meter().readOps, 4u);
  tallPort.setLutTableBlind(straddling, 0x1234);
  EXPECT_EQ(tallPort.meter().readOps, 4u);
  EXPECT_EQ(tallPort.meter().writeOps, 4u);
  EXPECT_EQ(tallPort.meter().bytesToDevice, 4u * 64);
  EXPECT_EQ(tallPort.meter().bytesFromDevice, 4u * 64);
  EXPECT_EQ(tallPort.getLutTable(straddling), 0x1234);
}

TEST(ConfigPort, BlindWriteAfterMeteredWriteLandsBoth) {
  // A blind write works from the host mirror of the configuration; after a
  // metered write to the same frame in the same session, the mirror already
  // holds that write, so the blind RMW keeps it and charges no read.
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{3, 3};
  const auto& layout = dev.layout();
  const std::size_t bitA = layout.cbFieldBit(cb, CbField::FfUsed);
  const std::size_t bitB = layout.cbFieldBit(cb, CbField::LutUsed);
  ASSERT_EQ(layout.frameOfLogicBit(bitA), layout.frameOfLogicBit(bitB));

  port.beginSession();
  port.setLogicBit(bitA, true);
  const TransferMeter before = port.meter();
  const std::pair<std::size_t, bool> blind[] = {{bitB, true}};
  port.setLogicBitsBlind(blind);
  EXPECT_EQ(port.meter().readOps, before.readOps);
  EXPECT_EQ(port.meter().bytesFromDevice, before.bytesFromDevice);
  EXPECT_EQ(port.meter().writeOps, before.writeOps + 1);
  EXPECT_TRUE(dev.logicBit(bitA));
  EXPECT_TRUE(dev.logicBit(bitB));
}

TEST(ConfigPort, PulseGsrSeesPrecedingSrModeWrite) {
  Device dev(DeviceSpec::small());
  ConfigPort port(dev);
  const CbCoord cb{5, 6};
  port.beginSession();
  port.setCbFieldBit(cb, CbField::FfUsed, true);
  port.setCbFieldBit(cb, CbField::SrMode, true);
  port.pulseGsr();
  EXPECT_TRUE(port.readFfState(cb));
}

// --- replica-order equivalence across the FADES injectors ------------------
//
// Replicas run experiments back to back and restore only dynamic state, so
// an experiment must leave nothing behind that changes the next one. Two
// replicas with identical options run the same experiments in opposite
// index orders and must agree field for field; after every experiment the
// logic configuration plane must be back to the downloaded bitstream. (The
// suite name predates the removal of the port's frame cache.)

namespace equiv {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::TargetClass;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;

/// Small multi-unit design: 8-bit LFSR, 4-bit counter, adder, RAM log.
struct ReplicaDesign {
  netlist::Netlist nl;
  synth::Implementation impl;
  std::uint64_t cycles = 48;

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

  ReplicaDesign()
      : nl(build()), impl(synth::implement(nl, fpga::DeviceSpec::small())) {}

  static const ReplicaDesign& instance() {
    static ReplicaDesign d;
    return d;
  }
};

FadesOptions baseOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

void expectEqualOutcomes(const campaign::ExperimentOutcome& a,
                         const campaign::ExperimentOutcome& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  // Bit-identical, not approximately equal: the meters match exactly, so
  // the derived seconds must too.
  EXPECT_EQ(a.modeledSeconds, b.modeledSeconds);
  EXPECT_EQ(a.configSeconds, b.configSeconds);
  EXPECT_EQ(a.workloadSeconds, b.workloadSeconds);
  EXPECT_EQ(a.hostSeconds, b.hostSeconds);
  EXPECT_EQ(a.bytesToDevice, b.bytesToDevice);
  EXPECT_EQ(a.bytesFromDevice, b.bytesFromDevice);
  EXPECT_EQ(a.sessions, b.sessions);
  ASSERT_EQ(a.hasRecord, b.hasRecord);
  if (a.hasRecord) {
    EXPECT_EQ(a.record.targetName, b.record.targetName);
    EXPECT_EQ(a.record.injectCycle, b.record.injectCycle);
    EXPECT_EQ(a.record.durationCycles, b.record.durationCycles);
    EXPECT_EQ(a.record.outcome, b.record.outcome);
    EXPECT_EQ(a.record.modeledSeconds, b.record.modeledSeconds);
    EXPECT_EQ(a.record.component, b.record.component);
    EXPECT_EQ(a.record.detectCycle, b.record.detectCycle);
  }
}

void expectReplicaOrderEquivalence(const FadesOptions& options,
                                   FaultModel model, TargetClass cls,
                                   Unit unit, unsigned experiments = 5) {
  const auto& d = ReplicaDesign::instance();
  fpga::Device devUp(d.impl.spec);
  fpga::Device devDown(d.impl.spec);
  FadesTool up(devUp, d.impl, d.cycles, options);
  FadesTool down(devDown, d.impl, d.cycles, options);

  CampaignSpec spec;
  spec.model = model;
  spec.targets = cls;
  spec.unit = static_cast<int>(unit);
  spec.seed = 7;
  spec.experiments = experiments;
  const auto pool = up.enumeratePool(spec);
  ASSERT_EQ(pool, down.enumeratePool(spec));

  // Every experiment must hand the next one the downloaded configuration.
  auto run = [&](FadesTool& tool, fpga::Device& dev, unsigned e) {
    auto out = tool.runExperimentAt(spec, pool, e, 0);
    EXPECT_TRUE(dev.readbackBitstream().logic == d.impl.bitstream.logic)
        << "experiment " << e << " left the logic plane modified";
    return out;
  };
  std::vector<campaign::ExperimentOutcome> ascending(experiments);
  std::vector<campaign::ExperimentOutcome> descending(experiments);
  for (unsigned e = 0; e < experiments; ++e) {
    ascending[e] = run(up, devUp, e);
  }
  for (unsigned e = experiments; e-- > 0;) {
    descending[e] = run(down, devDown, e);
  }
  for (unsigned e = 0; e < experiments; ++e) {
    SCOPED_TRACE("experiment " + std::to_string(e));
    expectEqualOutcomes(ascending[e], descending[e]);
  }

  // Op-level transfer meters, field for field, on a fixed experiment that
  // each replica runs after its own history.
  common::Rng rngUp(99), rngDown(99);
  double secUp = 0, secDown = 0;
  TransferMeter mUp, mDown;
  bool threwUp = false, threwDown = false;
  campaign::Outcome oUp{}, oDown{};
  try {
    oUp = up.runExperiment(model, cls, pool[0], 5, 2.0, rngUp, &secUp, &mUp);
  } catch (const common::FadesError&) {
    threwUp = true;
  }
  try {
    oDown = down.runExperiment(model, cls, pool[0], 5, 2.0, rngDown,
                               &secDown, &mDown);
  } catch (const common::FadesError&) {
    threwDown = true;
  }
  ASSERT_EQ(threwUp, threwDown);
  if (!threwUp) {
    EXPECT_EQ(oUp, oDown);
    EXPECT_EQ(secUp, secDown);
    EXPECT_EQ(mUp.bytesToDevice, mDown.bytesToDevice);
    EXPECT_EQ(mUp.bytesFromDevice, mDown.bytesFromDevice);
    EXPECT_EQ(mUp.writeOps, mDown.writeOps);
    EXPECT_EQ(mUp.readOps, mDown.readOps);
    EXPECT_EQ(mUp.captureOps, mDown.captureOps);
    EXPECT_EQ(mUp.commandOps, mDown.commandOps);
    EXPECT_EQ(mUp.sessions, mDown.sessions);
  }
}

TEST(CacheEquivalence, BitFlipFlopLsr) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::BitFlip,
                                TargetClass::SequentialFF, Unit::Registers);
}

TEST(CacheEquivalence, BitFlipFlopGsr) {
  auto o = baseOptions();
  o.bitFlipVia = core::BitFlipVia::Gsr;
  expectReplicaOrderEquivalence(o, FaultModel::BitFlip,
                                TargetClass::SequentialFF, Unit::Registers);
}

TEST(CacheEquivalence, BitFlipMemory) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::BitFlip,
                                TargetClass::MemoryBlockBit, Unit::Ram);
}

TEST(CacheEquivalence, PulseLut) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::Pulse,
                                TargetClass::CombinationalLut, Unit::Alu);
}

TEST(CacheEquivalence, PulseCbInput) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::Pulse,
                                TargetClass::CbInputLine, Unit::None);
}

TEST(CacheEquivalence, DelayFullDownload) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::Delay,
                                TargetClass::CombinationalLine, Unit::None, 3);
}

TEST(CacheEquivalence, DelayPartialFrames) {
  auto o = baseOptions();
  o.fullDownloadForDelay = false;
  expectReplicaOrderEquivalence(o, FaultModel::Delay,
                                TargetClass::SequentialLine, Unit::None, 3);
}

TEST(CacheEquivalence, IndeterminationFlop) {
  expectReplicaOrderEquivalence(baseOptions(), FaultModel::Indetermination,
                                TargetClass::SequentialFF, Unit::Registers);
}

TEST(CacheEquivalence, IndeterminationLutOscillating) {
  auto o = baseOptions();
  o.oscillatingIndetermination = true;
  expectReplicaOrderEquivalence(o, FaultModel::Indetermination,
                                TargetClass::CombinationalLut, Unit::Alu);
}

TEST(CacheEquivalence, DelayFanout) {
  auto o = baseOptions();
  o.delayVia = core::DelayVia::Fanout;
  expectReplicaOrderEquivalence(o, FaultModel::Delay,
                                TargetClass::SequentialLine, Unit::None, 3);
}

TEST(CacheEquivalence, DelayReroutePartialFrames) {
  auto o = baseOptions();
  o.delayVia = core::DelayVia::Reroute;
  o.fullDownloadForDelay = false;
  expectReplicaOrderEquivalence(o, FaultModel::Delay,
                                TargetClass::SequentialLine, Unit::None, 3);
}

// ------------------------------------------------ early stop and locate -

struct ReplicaCase {
  const char* name;
  FadesOptions options;
  FaultModel model;
  TargetClass cls;
  Unit unit;
};

/// The eleven configurations of the CacheEquivalence suite.
std::vector<ReplicaCase> replicaCases() {
  auto with = [](auto change) {
    FadesOptions o = baseOptions();
    change(o);
    return o;
  };
  const FadesOptions base = baseOptions();
  return {
      {"BitFlipFlopLsr", base, FaultModel::BitFlip, TargetClass::SequentialFF,
       Unit::Registers},
      {"BitFlipFlopGsr",
       with([](FadesOptions& o) { o.bitFlipVia = core::BitFlipVia::Gsr; }),
       FaultModel::BitFlip, TargetClass::SequentialFF, Unit::Registers},
      {"BitFlipMemory", base, FaultModel::BitFlip,
       TargetClass::MemoryBlockBit, Unit::Ram},
      {"PulseLutTable", base, FaultModel::Pulse,
       TargetClass::CombinationalLut, Unit::Alu},
      {"PulseCbInput", base, FaultModel::Pulse, TargetClass::CbInputLine,
       Unit::None},
      {"DelayFullDownload", base, FaultModel::Delay,
       TargetClass::CombinationalLine, Unit::None},
      {"DelayPartialFrames",
       with([](FadesOptions& o) { o.fullDownloadForDelay = false; }),
       FaultModel::Delay, TargetClass::SequentialLine, Unit::None},
      {"IndeterminationFlop", base, FaultModel::Indetermination,
       TargetClass::SequentialFF, Unit::Registers},
      {"IndeterminationLutOscillating",
       with([](FadesOptions& o) { o.oscillatingIndetermination = true; }),
       FaultModel::Indetermination, TargetClass::CombinationalLut, Unit::Alu},
      {"DelayFanout",
       with([](FadesOptions& o) { o.delayVia = core::DelayVia::Fanout; }),
       FaultModel::Delay, TargetClass::SequentialLine, Unit::None},
      {"DelayReroutePartialFrames", with([](FadesOptions& o) {
         o.delayVia = core::DelayVia::Reroute;
         o.fullDownloadForDelay = false;
       }),
       FaultModel::Delay, TargetClass::SequentialLine, Unit::None},
  };
}

class EarlyStopEquivalence : public ::testing::TestWithParam<ReplicaCase> {};

TEST_P(EarlyStopEquivalence, StoppedRunsStayOnTheGoldenRun) {
  // Every flip-flop of the design reaches the output, so its bit-flips and
  // bypass-input pulses all fail: those configurations check that nothing
  // stops wrongly. The others stop early in 1-23 of 24 experiments.
  const ReplicaCase& c = GetParam();
  const auto& d = ReplicaDesign::instance();
  CampaignSpec spec;
  spec.model = c.model;
  spec.targets = c.cls;
  spec.unit = static_cast<int>(c.unit);
  spec.seed = 11;
  spec.experiments = 24;
  const unsigned stopped =
      goldenref::expectEarlyStopsExact(d.impl, d.cycles, c.options, spec);
  RecordProperty("stopped_early", static_cast<int>(stopped));
}

INSTANTIATE_TEST_SUITE_P(
    All, EarlyStopEquivalence, ::testing::ValuesIn(replicaCases()),
    [](const ::testing::TestParamInfo<ReplicaCase>& info) {
      return std::string(info.param.name);
    });

TEST(LocateExactness, EveryCycleOfTheDemoWorkload) {
  // locate(c) loads cycle c from the golden trace; it must equal a device
  // stepped c cycles from the download - previous D values included - even
  // on a replica whose last experiment rerouted a line in timing mode.
  const auto& d = ReplicaDesign::instance();
  const std::uint64_t cycles = 64;
  auto options = baseOptions();
  options.delayVia = core::DelayVia::Reroute;
  fpga::Device dev(d.impl.spec);
  FadesTool tool(dev, d.impl, cycles, options);
  const auto lines = tool.targets(FaultModel::Delay,
                                  TargetClass::SequentialLine, Unit::None);
  common::Rng rng(5);
  std::vector<std::uint64_t> all(cycles);
  for (std::uint64_t c = 0; c < cycles; ++c) all[c] = c;
  goldenref::expectLocateExact(tool, all, [&](std::uint64_t c) {
    try {
      tool.runExperiment(FaultModel::Delay, TargetClass::SequentialLine,
                         lines[c % lines.size()], (c * 7) % cycles, 2.0, rng);
    } catch (const common::FadesError&) {
      // A line without a detour: the history is what matters here.
    }
  });
}

TEST(ConfigAudit, PoisonedReplicaIsRecoveredAndRerun) {
  // A replica whose logic plane left the downloaded bitstream would run the
  // next experiment on a different circuit. The audit turns that into a
  // transient error: recover() re-downloads, and the rerun computes what a
  // clean replica computes.
  const auto& d = ReplicaDesign::instance();
  const FadesOptions options = baseOptions();
  CampaignSpec spec;
  spec.model = FaultModel::BitFlip;
  spec.targets = TargetClass::MemoryBlockBit;
  spec.unit = static_cast<int>(Unit::Ram);
  spec.seed = 7;
  spec.experiments = 2;
  auto& quarantine =
      obs::Registry::global().counter("test.audit_quarantined");

  fpga::Device cleanDev(d.impl.spec);
  FadesTool clean(cleanDev, d.impl, d.cycles, options);
  const auto pool = clean.enumeratePool(spec);
  const auto want =
      campaign::runExperimentWithRetry(clean, spec, pool, 1, quarantine);
  // The memory log is write-only: a clean replica never reports Failure.
  ASSERT_NE(want.outcome, campaign::Outcome::Failure);

  // The poison: the first table bit of a used LUT whose flip makes the
  // fault-free run leave the golden outputs at or after the experiment's
  // injection instant, so an unaudited replica reports Failure.
  const std::uint64_t injectCycle =
      campaign::drawExperiment(spec, pool, d.cycles, 1).injectCycle;
  std::size_t poison = 0;
  bool found = false;
  for (std::size_t i = 0; i < d.impl.luts.size() && !found; ++i) {
    if (!d.impl.luts[i].out.valid()) continue;
    for (unsigned k = 0; k < 16 && !found; ++k) {
      const std::size_t bit = cleanDev.layout().cbLutBit(d.impl.luts[i].cb, k);
      fpga::Device probe(d.impl.spec);
      probe.writeFullBitstream(d.impl.bitstream);
      probe.setLogicBit(bit, !probe.logicBit(bit));
      for (std::uint64_t c = 0; c < d.cycles && !found; ++c) {
        found = c >= injectCycle &&
                goldenref::outputWord(d.impl, probe,
                                      options.observedOutputs) !=
                    clean.golden().outputs[c];
        probe.step();
      }
      poison = bit;
    }
  }
  ASSERT_TRUE(found);

  fpga::Device dev(d.impl.spec);
  FadesTool tool(dev, d.impl, d.cycles, options);
  campaign::runExperimentWithRetry(tool, spec, pool, 0, quarantine);
  dev.setLogicBit(poison, !dev.logicBit(poison));
  const auto& audits =
      obs::Registry::global().counter("fades.config_audit_failures");
  const std::uint64_t auditsBefore = audits.value();
  const auto got =
      campaign::runExperimentWithRetry(tool, spec, pool, 1, quarantine);
  EXPECT_EQ(got.attempts, 2u);
  EXPECT_FALSE(got.quarantined);
  EXPECT_EQ(audits.value() - auditsBefore, 1u);
  expectEqualOutcomes(got, want);
}

}  // namespace equiv

}  // namespace
}  // namespace fades::bits
