// AutonomousEquivalence: the autonomous-emulation backend is proven
// interchangeable with the other injectors.
//
//   * random builder designs: autonomous campaign records field-for-field
//     equal to VFIT's across the shared fault-model x target-class matrix,
//     with the autonomous cost model (exact config+workload+host sum, zero
//     configuration bytes) checked on every experiment;
//   * byte-identical run artifacts across --jobs 1/8 through the sharded
//     campaign runner, every experiment matching the scalar
//     simulator-command reference (vfit_reference.hpp);
//   * the MC8051 + Bubblesort workload, FF and memory campaigns;
//   * 4-way oracle (FADES / VFIT / autonomous / golden ISS) agreement on a
//     constructed matrix of cases and on the committed RTL corpus (the
//     corpus-label test replays the microcontroller cases).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "core/autonomous.hpp"
#include "diffcheck/case_spec.hpp"
#include "diffcheck/gen.hpp"
#include "diffcheck/oracle.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "netlist/netlist.hpp"
#include "vfit/vfit.hpp"
#include "vfit_reference.hpp"

namespace fades {
namespace {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Netlist;

// The shared matrix: every fault model x target class both simulator-backed
// injectors support on the random designs.
struct MatrixEntry {
  FaultModel model;
  TargetClass targets;
  bool needsRam;
};
const MatrixEntry kMatrix[] = {
    {FaultModel::BitFlip, TargetClass::SequentialFF, false},
    {FaultModel::BitFlip, TargetClass::MemoryBlockBit, true},
    {FaultModel::Pulse, TargetClass::CombinationalLut, false},
    {FaultModel::Indetermination, TargetClass::SequentialFF, false},
    {FaultModel::Indetermination, TargetClass::CombinationalLut, false},
};

diffcheck::CaseSpec rtlCase(std::uint64_t seed, bool withRam) {
  diffcheck::CaseSpec c;
  c.name = "autonomous-rtl-" + std::to_string(seed);
  c.kind = diffcheck::DesignKind::Rtl;
  c.rtl.seed = seed;
  c.rtl.withRam = withRam;
  c.runCycles = 48;
  c.inject.experiments = 10;
  c.inject.seed = seed * 11 + 3;
  c.inject.band = campaign::DurationBand::shortBand();
  return c;
}

TEST(AutonomousEquivalence, RandomDesignsMatchVfitAcrossMatrix) {
  for (const std::uint64_t seed : {1u, 2u, 7u}) {
    const diffcheck::CaseSpec c = rtlCase(seed, /*withRam=*/true);
    const Netlist nl = diffcheck::buildDesign(c);

    vfit::VfitOptions vOpt;
    vOpt.observedOutputs = diffcheck::observedOutputs(c);
    vOpt.keepRecords = true;
    vfit::VfitTool vfit(nl, c.runCycles, vOpt);

    core::AutonomousOptions aOpt;
    aOpt.observedOutputs = diffcheck::observedOutputs(c);
    aOpt.keepRecords = true;
    core::AutonomousTool aut(nl, c.runCycles, aOpt);

    for (const auto& m : kMatrix) {
      CampaignSpec spec = c.inject;
      spec.model = m.model;
      spec.targets = m.targets;

      const auto vPool = vfit.enumeratePool(spec);
      const auto aPool = aut.enumeratePool(spec);
      ASSERT_EQ(vPool, aPool) << "pools diverge, seed " << seed;

      const double expectedWorkload =
          static_cast<double>(c.runCycles) / aOpt.fpgaClockHz;
      for (unsigned e = 0; e < spec.experiments; ++e) {
        const auto v = vfit.runExperimentAt(spec, vPool, e, 0);
        const auto a = aut.runExperimentAt(spec, aPool, e, 0);
        const auto tag = std::string(campaign::toString(m.model)) + "/" +
                         campaign::toString(m.targets) + " seed " +
                         std::to_string(seed) + " exp " + std::to_string(e);
        // Same semantic engine: draw, target and classification identical.
        ASSERT_TRUE(v.hasRecord && a.hasRecord) << tag;
        EXPECT_EQ(v.record.targetName, a.record.targetName) << tag;
        EXPECT_EQ(v.record.injectCycle, a.record.injectCycle) << tag;
        EXPECT_EQ(v.record.durationCycles, a.record.durationCycles) << tag;
        EXPECT_EQ(v.outcome, a.outcome) << tag;
        // Autonomous cost model: exact decomposition, workload at the
        // emulator clock, no configuration traffic.
        EXPECT_EQ(a.modeledSeconds,
                  a.configSeconds + a.workloadSeconds + a.hostSeconds) << tag;
        EXPECT_EQ(a.workloadSeconds, expectedWorkload) << tag;
        EXPECT_EQ(a.hostSeconds, aOpt.hostPerInjectionSeconds) << tag;
        EXPECT_GT(a.configSeconds, 0.0) << tag;
        EXPECT_EQ(a.bytesToDevice, 0u) << tag;
        EXPECT_EQ(a.bytesFromDevice, 0u) << tag;
        EXPECT_EQ(a.sessions, 0u) << tag;
        EXPECT_EQ(a.record.modeledSeconds, a.modeledSeconds) << tag;
        // The whole point of the technique: per-injection overhead beyond
        // the workload is a handful of emulator cycles plus host turnaround,
        // well under a millisecond-and-change even with the scan chain.
        EXPECT_LT(a.configSeconds + a.hostSeconds,
                  aut.injectionOverheadSeconds(10000)) << tag;
      }
    }
  }
}

std::string artifactString(const campaign::CampaignResult& result) {
  return campaign::toRunArtifact(result, "autonomous_equiv",
                                 /*includeMetrics=*/false)
      .toJson()
      .dump(2);
}

TEST(AutonomousEquivalence, JobsAndEngineArtifactInvariance) {
  // The runner's autonomous engine replicas at --jobs 1 and 8, and one
  // borrowed tool run twice, produce one artifact, and every experiment in
  // it reproduces the scalar simulator-command reference: its draws and
  // classification, and its command count metered under the autonomous
  // cost model.
  const diffcheck::CaseSpec c = rtlCase(5, /*withRam=*/false);
  const Netlist nl = diffcheck::buildDesign(c);

  CampaignSpec spec = c.inject;
  spec.model = FaultModel::Pulse;
  spec.targets = TargetClass::CombinationalLut;
  spec.experiments = 100;

  core::AutonomousOptions opt;
  opt.observedOutputs = diffcheck::observedOutputs(c);
  opt.keepRecords = true;
  std::vector<campaign::CampaignResult> results;
  for (const unsigned jobs : {1u, 8u}) {
    campaign::ParallelOptions popt;
    popt.jobs = jobs;
    campaign::ParallelCampaignRunner runner(
        core::autonomousEngineFactory(nl, c.runCycles, opt), popt);
    results.push_back(runner.run(spec));
  }
  EXPECT_EQ(artifactString(results[0]), artifactString(results[1]));

  core::AutonomousTool aut(nl, c.runCycles, opt);
  for (const char* what : {"borrowed tool", "borrowed tool, second run"}) {
    EXPECT_EQ(artifactString(campaign::runCampaign(spec, {&aut})),
              artifactString(results[0]))
        << what;
  }
  vfit::VfitOptions vOpt;
  vOpt.observedOutputs = opt.observedOutputs;
  vfit::VfitTool reference(nl, c.runCycles, vOpt);
  const auto pool = reference.enumeratePool(spec);
  ASSERT_EQ(results[0].records.size(), spec.experiments);
  for (unsigned e = 0; e < spec.experiments; ++e) {
    const auto ref = vfitref::scalarReference(reference, spec, pool, e);
    const auto& record = results[0].records[e];
    const std::string what = "index " + std::to_string(e);
    vfitref::expectRecordMatches(record, ref, false, what);
    const auto a = aut.runExperimentAt(spec, pool, e, 0);
    EXPECT_EQ(a.modeledSeconds, record.modeledSeconds) << what;
    EXPECT_EQ(a.configSeconds + a.hostSeconds,
              aut.injectionOverheadSeconds(ref.commands))
        << what;
  }
}

TEST(AutonomousEquivalence, Mc8051BubblesortMatchesVfit) {
  const auto workload = mc8051::bubblesort(6);
  const Netlist nl = mc8051::buildCore(workload.bytes);

  vfit::VfitOptions vOpt;
  vOpt.keepRecords = true;
  vfit::VfitTool vfit(nl, workload.cycles, vOpt);

  core::AutonomousOptions aOpt;
  aOpt.keepRecords = true;
  core::AutonomousTool aut(nl, workload.cycles, aOpt);

  // The instrumentation reports real area overhead on the full core: a mask
  // and a shadow per flip-flop, and golden-copy bits for every writable RAM.
  EXPECT_EQ(aut.model().chainBits, nl.flopCount());
  EXPECT_EQ(aut.model().addedFlops, 2 * nl.flopCount());
  EXPECT_GT(aut.model().shadowRamBits, 0u);
  EXPECT_GT(aut.restoreCycles(), 1u);

  for (const auto targets :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit}) {
    CampaignSpec spec;
    spec.model = FaultModel::BitFlip;
    spec.targets = targets;
    spec.experiments = 16;
    spec.seed = 2006;

    const auto vres = campaign::runCampaign(spec, {&vfit});
    const auto ares = campaign::runCampaign(spec, {&aut});
    EXPECT_EQ(vres.failures, ares.failures);
    EXPECT_EQ(vres.latents, ares.latents);
    EXPECT_EQ(vres.silents, ares.silents);
    ASSERT_EQ(vres.records.size(), ares.records.size());
    for (std::size_t i = 0; i < vres.records.size(); ++i) {
      EXPECT_EQ(vres.records[i].targetName, ares.records[i].targetName);
      EXPECT_EQ(vres.records[i].injectCycle, ares.records[i].injectCycle);
      EXPECT_EQ(vres.records[i].outcome, ares.records[i].outcome);
    }
  }
}

TEST(AutonomousEquivalence, FourWayOracleAgreesOnConstructedMatrix) {
  for (const auto& m : kMatrix) {
    diffcheck::CaseSpec c = rtlCase(3, m.needsRam);
    c.inject.model = m.model;
    c.inject.targets = m.targets;
    const auto rep = diffcheck::checkCase(c);
    EXPECT_TRUE(rep.ok()) << rep.toJson().dump(2);
    // The autonomous pool enumeration equals VFIT's, so whenever VFIT could
    // inject, the autonomous backend must have run (and agreed).
    if (rep.vfitRan) EXPECT_TRUE(rep.autonomousRan);
  }
}

TEST(AutonomousEquivalence, FourWayOracleAgreesOnCommittedRtlCorpus) {
  unsigned replayed = 0, autonomousRan = 0;
  for (const auto& c : diffcheck::seedCorpus()) {
    if (c.kind != diffcheck::DesignKind::Rtl) continue;
    const auto rep = diffcheck::checkCase(c);
    EXPECT_TRUE(rep.ok()) << c.name << ": " << rep.toJson().dump(2);
    if (rep.vfitRan) {
      EXPECT_TRUE(rep.autonomousRan) << c.name;
    }
    ++replayed;
    if (rep.autonomousRan) ++autonomousRan;
  }
  EXPECT_GE(replayed, 8u);
  EXPECT_GE(autonomousRan, 4u);
}

}  // namespace
}  // namespace fades
