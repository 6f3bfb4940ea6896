// Prove-the-collapse equivalence suite for liveness-based fault-list
// pruning (src/prune).
//
// The pruning plan's claim is strong: every collapsed member produces THE
// SAME outcome and measured cost fields as its class representative. The
// PruneEquivalence suite does not take the analysis's word for it - for
// random rtl::Builder designs across the supported fault-model x
// target-class matrix it actually RUNS every collapsed member unpruned,
// synthesizes the same member from its representative, and asserts
// field-for-field identity between the two. The runner-level tests then
// pin the artifact contract: a pruned campaign's folded fades.run/1 text is
// identical at any --jobs and across a journal truncation + --resume, and
// differs from the unpruned artifact only by the pruned_from provenance
// field. A committed golden plan for the paper's Bubblesort workload pins
// the fades.prune/1 serialization byte for byte.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "prune/prune.hpp"
#include "rtl/builder.hpp"
#include "service/jobspec.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace fades {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::ExperimentOutcome;
using campaign::FaultModel;
using campaign::TargetClass;
using common::Rng;
using netlist::Netlist;
using netlist::Unit;
using rtl::Builder;
using rtl::Bus;

constexpr std::uint64_t kCycles = 48;

/// A one-cycle duration band: every draw yields duration 1.0, so every
/// experiment on the same target shares one cost signature. Used by the
/// pulse / indetermination cases, whose collapse is keyed by the active
/// window - a fixed window guarantees multi-member classes.
DurationBand oneCycleBand() { return {1.0, 1.0, "1"}; }

/// Random sequential circuit with every population the pruning analysis
/// reasons about: a counter FSM, live feedback registers, a combinational
/// soup with named HDL signals, a written-and-read RAM - plus deliberately
/// dead logic (a register nothing consumes and two named signals feeding
/// nothing) so dead-target collapse always has prey.
Netlist pruneCircuit(std::uint64_t seed) {
  Rng rng(seed);
  Builder b;
  b.setUnit(Unit::Fsm);
  rtl::Register cnt = b.makeRegister("cnt", 4, 0);
  b.connect(cnt, b.increment(cnt.q));

  b.setUnit(Unit::Registers);
  std::vector<rtl::Register> regs;
  const unsigned nRegs = 2 + static_cast<unsigned>(rng.below(3));
  for (unsigned r = 0; r < nRegs; ++r) {
    regs.push_back(
        b.makeRegister("r" + std::to_string(r), 4, rng.below(16)));
  }
  std::vector<rtl::NetId> pool(cnt.q.begin(), cnt.q.end());
  for (const auto& r : regs) {
    pool.insert(pool.end(), r.q.begin(), r.q.end());
  }

  b.setUnit(Unit::Alu);
  std::vector<rtl::NetId> made;
  for (unsigned g = 0; g < 20; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    rtl::NetId out;
    switch (rng.below(4)) {
      case 0: out = b.land(pick(), pick()); break;
      case 1: out = b.lxor(pick(), pick()); break;
      case 2: out = b.lnot(pick()); break;
      default: out = b.lmux(pick(), pick(), pick()); break;
    }
    pool.push_back(out);
    made.push_back(out);
  }
  for (unsigned s = 0; s < 4 && s < made.size(); ++s) {
    b.nameBus("s" + std::to_string(s), {made[s]});
  }

  // Dead register: its D input is driven (a live sink like any flop D), but
  // its Q bits only reach a debug port the campaigns do not observe. The
  // debug port keeps the cone physically implemented - synthesis would
  // otherwise sweep it and FADES would have no LUT to target - while the
  // liveness analysis, which only trusts the observed outputs, proves every
  // fault on it invisible.
  rtl::Register deadr = b.makeRegister("deadr", 3, 5);
  Bus deadD;
  for (int k = 0; k < 3; ++k) deadD.push_back(pool[rng.below(pool.size())]);
  b.connect(deadr, deadD);
  b.setUnit(Unit::Alu);
  const rtl::NetId dead0 = b.lxor(deadr.q[0], deadr.q[1]);
  const rtl::NetId dead1 = b.lnot(deadr.q[2]);
  b.nameBus("dead0", {dead0});
  b.nameBus("dead1", {dead1});
  b.output("debug", {dead0, dead1});

  // RAM that is both written (odd counter values) and read every cycle, so
  // memory faults can surface, be overwritten, or expire out of window.
  b.setUnit(Unit::Ram);
  Bus dout = b.ram("m", 4, 4, cnt.q, regs[0].q, cnt.q[0]);

  b.setUnit(Unit::Registers);
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  Bus out;
  for (int k = 0; k < 4; ++k) out.push_back(pool[rng.below(pool.size())]);
  out.push_back(dout[0]);
  out.push_back(dout[1]);
  b.output("out", out);
  return b.finish();
}

/// Field-for-field identity between a member actually executed and the same
/// member synthesized from its class representative. The only permitted
/// difference is provenance: the synthesized record carries pruned_from.
void expectOutcomeEq(const ExperimentOutcome& real,
                     const ExperimentOutcome& synth,
                     std::uint64_t representative) {
  EXPECT_EQ(real.index, synth.index);
  EXPECT_EQ(real.outcome, synth.outcome);
  EXPECT_EQ(real.modeledSeconds, synth.modeledSeconds);
  EXPECT_EQ(real.configSeconds, synth.configSeconds);
  EXPECT_EQ(real.workloadSeconds, synth.workloadSeconds);
  EXPECT_EQ(real.hostSeconds, synth.hostSeconds);
  EXPECT_EQ(real.bytesToDevice, synth.bytesToDevice);
  EXPECT_EQ(real.bytesFromDevice, synth.bytesFromDevice);
  EXPECT_EQ(real.sessions, synth.sessions);
  EXPECT_FALSE(real.quarantined);
  EXPECT_FALSE(synth.quarantined);
  ASSERT_EQ(real.hasRecord, synth.hasRecord);
  if (real.hasRecord) {
    EXPECT_EQ(real.record.targetName, synth.record.targetName);
    EXPECT_EQ(real.record.injectCycle, synth.record.injectCycle);
    EXPECT_EQ(real.record.durationCycles, synth.record.durationCycles);
    EXPECT_EQ(real.record.outcome, synth.record.outcome);
    EXPECT_EQ(real.record.modeledSeconds, synth.record.modeledSeconds);
    EXPECT_EQ(real.record.component, synth.record.component);
    EXPECT_EQ(real.record.pc, synth.record.pc);
    EXPECT_EQ(real.record.opcode, synth.record.opcode);
    EXPECT_EQ(real.record.detectCycle, synth.record.detectCycle);
    EXPECT_EQ(real.record.prunedFrom, -1);
    EXPECT_EQ(synth.record.prunedFrom,
              static_cast<std::int64_t>(representative));
  }
}

struct VerifyStats {
  std::uint64_t classes = 0;
  std::uint64_t members = 0;
};

/// Build the plan for `spec` over the VFIT tool and execute-verify every
/// collapsed member against its synthesized twin.
VerifyStats verifyVfit(const Netlist& nl, CampaignSpec spec) {
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  vfit::VfitTool tool(nl, kCycles, opt);
  const auto pool = tool.enumeratePool(spec);
  if (pool.empty()) return {};

  sim::Simulator golden(nl);
  const auto trace = sim::GoldenTrace::record(golden, nl, kCycles);
  prune::AnalysisInputs in;
  in.netlist = &nl;
  in.trace = &trace;
  in.runCycles = kCycles;
  in.observedOutputs = {"out"};
  in.decode = prune::vfitDecoder(nl, spec.targets);
  in.name = [](std::uint32_t h) { return std::to_string(h); };
  in.uniformCostAcrossTargets = true;
  const auto plan = prune::buildPlan(spec, pool, in);
  plan.validate();

  VerifyStats st;
  st.classes = plan.classes.size();
  for (const auto& cls : plan.classes) {
    const auto rep = tool.runExperimentAt(
        spec, pool, static_cast<unsigned>(cls.representative), 0);
    for (const std::uint64_t m : cls.members) {
      const auto real =
          tool.runExperimentAt(spec, pool, static_cast<unsigned>(m), 0);
      const auto synth = tool.synthesizeOutcome(
          spec, pool, static_cast<unsigned>(m), rep);
      expectOutcomeEq(real, synth, cls.representative);
      ++st.members;
    }
  }
  return st;
}

/// Same execute-verify loop over the FADES tool (device-level handles,
/// metered reconfiguration costs). `poolNamePrefix` restricts the campaign
/// to targets whose tool name starts with the prefix - used to aim the
/// indetermination case straight at the dead register.
VerifyStats verifyFades(const Netlist& nl, CampaignSpec spec,
                        const char* poolNamePrefix = nullptr) {
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  fpga::Device device(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  core::FadesTool tool(device, impl, kCycles, opt);
  if (poolNamePrefix != nullptr) {
    for (const auto h :
         tool.targets(spec.model, spec.targets, Unit::None)) {
      if (tool.targetName(spec.targets, h).rfind(poolNamePrefix, 0) == 0) {
        spec.targetPool.push_back(h);
      }
    }
    if (spec.targetPool.empty()) return {};
  }
  const auto pool = tool.enumeratePool(spec);
  if (pool.empty()) return {};

  sim::Simulator golden(nl);
  const auto trace = sim::GoldenTrace::record(golden, nl, kCycles);
  prune::AnalysisInputs in;
  in.netlist = &nl;
  in.trace = &trace;
  in.runCycles = kCycles;
  in.observedOutputs = {"out"};
  in.decode = prune::fadesDecoder(impl, spec.targets);
  in.name = [&tool, cls = spec.targets](std::uint32_t h) {
    return tool.targetName(cls, h);
  };
  const auto plan = prune::buildPlan(spec, pool, in);
  plan.validate();

  VerifyStats st;
  st.classes = plan.classes.size();
  for (const auto& cls : plan.classes) {
    const auto rep = tool.runExperimentAt(
        spec, pool, static_cast<unsigned>(cls.representative), 0);
    for (const std::uint64_t m : cls.members) {
      const auto real =
          tool.runExperimentAt(spec, pool, static_cast<unsigned>(m), 0);
      const auto synth = tool.synthesizeOutcome(
          spec, pool, static_cast<unsigned>(m), rep);
      expectOutcomeEq(real, synth, cls.representative);
      ++st.members;
    }
  }
  return st;
}

CampaignSpec makeSpec(FaultModel model, TargetClass targets,
                      DurationBand band, unsigned experiments,
                      std::uint64_t seed) {
  CampaignSpec spec;
  spec.model = model;
  spec.targets = targets;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = band;
  spec.experiments = experiments;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------------ PruneEquivalence ---

class PruneEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PruneEquivalence, VfitBitFlipFlops) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyVfit(
      nl, makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                   DurationBand::shortBand(), 60, 100 + seed));
  // The dead register alone guarantees provably-silent flip-flop faults.
  EXPECT_GT(st.classes, 0u);
  EXPECT_GT(st.members, 0u);
}

TEST_P(PruneEquivalence, VfitBitFlipFlopsSubCycle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyVfit(
      nl, makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                   DurationBand::subCycle(), 40, 300 + seed));
  EXPECT_GT(st.classes, 0u);
}

TEST_P(PruneEquivalence, VfitBitFlipMemory) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyVfit(
      nl, makeSpec(FaultModel::BitFlip, TargetClass::MemoryBlockBit,
                   DurationBand::shortBand(), 60, 200 + seed));
  // 64 memory bits against a single-row-per-cycle address stream: most
  // flips are erased by a write or never read inside the workload.
  EXPECT_GT(st.classes, 0u);
  EXPECT_GT(st.members, 0u);
}

TEST_P(PruneEquivalence, VfitPulseSignals) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyVfit(
      nl, makeSpec(FaultModel::Pulse, TargetClass::CombinationalLut,
                   oneCycleBand(), 40, 400 + seed));
  EXPECT_GT(st.classes, 0u);  // dead0/dead1 are named and provably dead
}

TEST_P(PruneEquivalence, VfitIndeterminationFlops) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyVfit(
      nl, makeSpec(FaultModel::Indetermination, TargetClass::SequentialFF,
                   oneCycleBand(), 48, 500 + seed));
  EXPECT_GT(st.classes, 0u);  // deadr's three bits collapse
}

TEST_P(PruneEquivalence, FadesBitFlipFlops) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyFades(
      nl, makeSpec(FaultModel::BitFlip, TargetClass::SequentialFF,
                   DurationBand::shortBand(), 48, 600 + seed));
  EXPECT_GT(st.classes, 0u);
  EXPECT_GT(st.members, 0u);
}

TEST_P(PruneEquivalence, FadesBitFlipMemory) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyFades(
      nl, makeSpec(FaultModel::BitFlip, TargetClass::MemoryBlockBit,
                   DurationBand::shortBand(), 48, 700 + seed));
  EXPECT_GT(st.classes, 0u);
}

TEST_P(PruneEquivalence, FadesPulseLuts) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyFades(
      nl, makeSpec(FaultModel::Pulse, TargetClass::CombinationalLut,
                   oneCycleBand(), 80, 800 + seed));
  // FADES keeps per-LUT classes (frame-metered cost), so collapse needs two
  // draws on the same dead LUT; 80 experiments over the soup guarantee it.
  EXPECT_GT(st.members, 0u);
}

TEST_P(PruneEquivalence, FadesIndeterminationDeadFlops) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = pruneCircuit(seed);
  const auto st = verifyFades(
      nl,
      makeSpec(FaultModel::Indetermination, TargetClass::SequentialFF,
               oneCycleBand(), 48, 900 + seed),
      "deadr");
  EXPECT_GT(st.classes, 0u);
  EXPECT_GT(st.members, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneEquivalence, ::testing::Range(1, 4));

TEST(PrunePlan, DelayCampaignsAreNeverPruned) {
  // The analysis cannot vouch for delay faults (re-routed timing has no
  // golden-trace equivalence), so the plan must come back empty rather than
  // guess.
  const Netlist nl = pruneCircuit(1);
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  fpga::Device device(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  core::FadesTool tool(device, impl, kCycles, opt);
  const auto spec = makeSpec(FaultModel::Delay, TargetClass::SequentialLine,
                             DurationBand::shortBand(), 24, 42);
  const auto pool = tool.enumeratePool(spec);
  ASSERT_FALSE(pool.empty());

  sim::Simulator golden(nl);
  const auto trace = sim::GoldenTrace::record(golden, nl, kCycles);
  prune::AnalysisInputs in;
  in.netlist = &nl;
  in.trace = &trace;
  in.runCycles = kCycles;
  in.observedOutputs = {"out"};
  in.decode = prune::fadesDecoder(impl, spec.targets);
  in.name = [&tool](std::uint32_t h) {
    return tool.targetName(TargetClass::SequentialLine, h);
  };
  const auto plan = prune::buildPlan(spec, pool, in);
  EXPECT_TRUE(plan.classes.empty());
  EXPECT_EQ(plan.collapsedCount(), 0u);
  EXPECT_EQ(plan.collapseFactor(), 1.0);
}

// ------------------------------------------------------- plan vocabulary ---

TEST(PrunePlan, ValidateRejectsMalformedPlans) {
  campaign::PrunePlan plan;
  plan.spec.experiments = 10;
  campaign::PruneClass cls;
  cls.representative = 0;
  cls.members = {1, 2};
  plan.classes.push_back(cls);
  plan.validate();  // well-formed baseline

  auto broken = plan;
  broken.classes[0].representative = 10;  // out of range
  EXPECT_THROW(broken.validate(), common::FadesError);

  broken = plan;
  broken.classes[0].members.push_back(0);  // representative as own member
  EXPECT_THROW(broken.validate(), common::FadesError);

  broken = plan;
  broken.classes.push_back(plan.classes[0]);  // member in two classes
  broken.classes[1].representative = 3;
  EXPECT_THROW(broken.validate(), common::FadesError);

  broken = plan;
  broken.classes[0].members.clear();  // class collapsing nothing
  EXPECT_THROW(broken.validate(), common::FadesError);

  broken = plan;
  broken.classes.push_back(campaign::PruneClass{});
  broken.classes[1].representative = 5;
  broken.classes[1].members = {0};  // representative collapsed elsewhere
  EXPECT_THROW(broken.validate(), common::FadesError);
}

TEST(PrunePlan, AccountingLineCarriesTheFullBreakdown) {
  campaign::PrunePlan plan;
  plan.spec.experiments = 8;
  campaign::PruneClass cls;
  cls.representative = 0;
  cls.members = {1, 2, 3};
  cls.reason = campaign::PruneReason::OverwriteBeforeRead;
  plan.classes.push_back(cls);

  const std::string line = campaign::accountingLine(plan);
  EXPECT_NE(line.find("prune plan: experiments=8"), std::string::npos);
  EXPECT_NE(line.find("executed=5"), std::string::npos);
  EXPECT_NE(line.find("collapsed=3"), std::string::npos);
  EXPECT_NE(line.find("factor=1.60x"), std::string::npos);
  EXPECT_NE(line.find("overwrite_before_read=3"), std::string::npos);
  EXPECT_NE(line.find("dead_target=0"), std::string::npos);
  EXPECT_NE(line.find("quiescent_until_read=0"), std::string::npos);
  EXPECT_NE(line.find("out_of_window=0"), std::string::npos);
}

TEST(PrunePlan, JobSpecGatesAndFingerprintStability) {
  service::JobSpec job;
  job.workload = "demo";
  job.spec.experiments = 10;

  // `prune` is serialized only when set, so every pre-pruning job identity
  // (journal filenames, worker caches) survives the schema addition.
  EXPECT_EQ(service::toJson(job).find("prune"), nullptr);
  const std::string before = service::fingerprint(job);
  job.prune = false;
  EXPECT_EQ(service::fingerprint(job), before);
  job.prune = true;
  EXPECT_NE(service::toJson(job).find("prune"), nullptr);
  EXPECT_NE(service::fingerprint(job), before);

  // The autonomous backend cannot synthesize collapsed outcomes.
  auto bad = job;
  bad.tool = "autonomous";
  EXPECT_THROW(service::validate(bad), common::FadesError);

  // A faulted link could quarantine a representative, which would break the
  // byte-identity contract for every member synthesized from it.
  bad = job;
  bad.tool = "fades";
  bad.linkFaultRate = 0.01;
  EXPECT_THROW(service::validate(bad), common::FadesError);
}

// ------------------------------------------------------ runner artifacts ---

/// The pruned-campaign fixture used by every artifact-identity scenario:
/// the fast demo workload under the VFIT tool, folded through the same
/// buildSystem/buildPrunePlan path campaign_8051 --prune uses.
struct PrunedDemo {
  service::JobSpec job;
  std::shared_ptr<service::CampaignSystem> sys;
  campaign::PrunePlan plan;

  PrunedDemo() {
    job.tool = "vfit";
    job.workload = "demo";
    job.spec.experiments = 120;
    job.spec.seed = 7;
    job.prune = true;
    service::validate(job);
    sys = service::buildSystem(job);
    plan = service::buildPrunePlan(*sys);
  }

  std::string artifact(const campaign::CampaignResult& result) const {
    return service::artifactText(job, result);
  }

  campaign::CampaignResult run(unsigned jobs, bool pruned,
                               campaign::CampaignJournal* journal = nullptr,
                               bool resume = false) const {
    campaign::ParallelOptions popt;
    popt.jobs = jobs;
    popt.journal = journal;
    popt.resume = resume;
    if (pruned) popt.prunePlan = &plan;
    campaign::ParallelCampaignRunner runner(sys->factory, popt);
    return runner.run(job.spec);
  }
};

TEST(PruneArtifact, OutcomeTotalsMatchUnprunedAndJobsCountIsIrrelevant) {
  PrunedDemo demo;
  ASSERT_GT(demo.plan.collapsedCount(), 0u)
      << "demo workload must exhibit some collapse for this test to bite";

  const auto unpruned = demo.run(1, /*pruned=*/false);
  const auto pruned1 = demo.run(1, /*pruned=*/true);
  const auto pruned8 = demo.run(8, /*pruned=*/true);

  // Pruned artifacts are byte-identical at any worker count.
  EXPECT_EQ(demo.artifact(pruned1), demo.artifact(pruned8));

  // Against the unpruned run: identical outcome totals and cost breakdown...
  EXPECT_EQ(pruned1.failures, unpruned.failures);
  EXPECT_EQ(pruned1.latents, unpruned.latents);
  EXPECT_EQ(pruned1.silents, unpruned.silents);
  EXPECT_EQ(pruned1.cost.configSeconds, unpruned.cost.configSeconds);
  EXPECT_EQ(pruned1.cost.workloadSeconds, unpruned.cost.workloadSeconds);
  EXPECT_EQ(pruned1.cost.hostSeconds, unpruned.cost.hostSeconds);
  EXPECT_EQ(pruned1.cost.bytesToDevice, unpruned.cost.bytesToDevice);
  EXPECT_EQ(pruned1.cost.sessions, unpruned.cost.sessions);
  EXPECT_TRUE(pruned1.quarantined.empty());

  // ...and records identical field for field, except that exactly the
  // collapsed members carry pruned_from provenance.
  ASSERT_EQ(pruned1.records.size(), unpruned.records.size());
  const auto memberClass = demo.plan.memberClassIndex();
  std::uint64_t flagged = 0;
  for (std::size_t i = 0; i < pruned1.records.size(); ++i) {
    const auto& p = pruned1.records[i];
    const auto& u = unpruned.records[i];
    EXPECT_EQ(p.targetName, u.targetName);
    EXPECT_EQ(p.injectCycle, u.injectCycle);
    EXPECT_EQ(p.durationCycles, u.durationCycles);
    EXPECT_EQ(p.outcome, u.outcome);
    EXPECT_EQ(p.modeledSeconds, u.modeledSeconds);
    EXPECT_EQ(p.component, u.component);
    EXPECT_EQ(p.detectCycle, u.detectCycle);
    EXPECT_EQ(u.prunedFrom, -1);
    if (memberClass[i] >= 0) {
      EXPECT_EQ(p.prunedFrom,
                static_cast<std::int64_t>(
                    demo.plan.classes[static_cast<std::size_t>(memberClass[i])]
                        .representative));
      ++flagged;
    } else {
      EXPECT_EQ(p.prunedFrom, -1);
    }
  }
  EXPECT_EQ(flagged, demo.plan.collapsedCount());
}

TEST(PruneArtifact, SurvivesJournalTruncationAndResume) {
  PrunedDemo demo;
  ASSERT_GT(demo.plan.collapsedCount(), 0u);

  const fs::path dir =
      fs::temp_directory_path() /
      ("fades-prune-test-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path journalPath = dir / "journal.jsonl";

  std::string full;
  {
    campaign::CampaignJournal journal(journalPath.string());
    full = demo.artifact(demo.run(2, /*pruned=*/true, &journal));
  }

  // Simulate a mid-campaign SIGKILL: keep the header and the first few
  // committed outcome lines, drop the rest.
  {
    std::ifstream in(journalPath, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_GT(lines.size(), 8u);
    std::ofstream out(journalPath, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < 6; ++i) out << lines[i] << "\n";
  }

  campaign::CampaignJournal resumed(journalPath.string());
  const std::string after =
      demo.artifact(demo.run(2, /*pruned=*/true, &resumed, /*resume=*/true));
  EXPECT_EQ(after, full);

  fs::remove_all(dir);
}

// ------------------------------------------------------------ golden file ---

TEST(PrunePlanGolden, BubblesortVfitFlopPlanMatchesCommitted) {
  // Pins the exact fades.prune/1 text - key order, class order, window
  // encoding - for the paper's Bubblesort workload. To regenerate after an
  // intentional schema or analysis change:
  //   FADES_REGEN_GOLDEN=1 ./tests/test_prune
  //       --gtest_filter='PrunePlanGolden.*'
  service::JobSpec job;
  job.tool = "vfit";
  job.workload = "bubblesort6";
  job.spec.model = FaultModel::BitFlip;
  job.spec.targets = TargetClass::SequentialFF;
  job.spec.unit = static_cast<int>(Unit::None);
  job.spec.band = DurationBand::shortBand();
  job.spec.experiments = 200;
  job.spec.seed = 2006;
  job.prune = true;
  service::validate(job);
  const auto sys = service::buildSystem(job);
  const auto plan = service::buildPrunePlan(*sys);
  EXPECT_GT(plan.collapsedCount(), 0u);
  const std::string text = campaign::toJson(plan).dump(2) + "\n";

  const std::string goldenPath =
      std::string(FADES_TEST_DATA_DIR) + "/prune_plan_bubblesort_vfit_ff.json";
  if (std::getenv("FADES_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(goldenPath, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << goldenPath;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str());
}

}  // namespace
}  // namespace fades
