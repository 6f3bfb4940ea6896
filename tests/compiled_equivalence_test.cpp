// CompiledEquivalence: VFIT campaigns run as bit-parallel waves on the
// compiled engine, and this suite proves them bit-identical to the
// event-driven simulator and to the scalar simulator-command reference
// (VfitTool::runExperiment, see vfit_reference.hpp).
//
//   * net-for-net, cycle-for-cycle state equality on random builder designs
//     under random fault commands (force / release / deposit): the scalar
//     commands on the event-driven simulator, the lane API on every lane of
//     the compiled one;
//   * campaign experiments field-for-field across the fault-model x
//     target-class matrix (runWaveAt vs the scalar reference);
//   * partial waves and index subsets against full waves;
//   * whole-campaign artifacts across wave boundaries, --jobs counts, a
//     borrowed tool as the only replica and a resumed --checkpoint
//     journal, every record against the reference;
//   * the MC8051 + Bubblesort workload, FF and RAM campaigns.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "mc8051/core.hpp"
#include "mc8051/workloads.hpp"
#include "netlist/netlist.hpp"
#include "rtl/builder.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "vfit/vfit.hpp"
#include "vfit_reference.hpp"

namespace fades {
namespace {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::TargetClass;
using common::Rng;
using netlist::Netlist;
using rtl::Builder;
using rtl::Bus;
using vfitref::expectRecordMatches;
using vfitref::expectRecordsMatch;
using vfitref::scalarReference;

// Random sequential design: registers, xor/mux cloud, and (on most seeds) a
// synchronous-read RAM whose address, data and write-enable come from the
// random logic - the structure class where engine divergence would hide.
Netlist randomDesign(std::uint64_t seed, unsigned gates, bool withRam) {
  Rng rng(seed);
  Builder b;
  Bus in = b.input("in", 8);
  std::vector<rtl::NetId> pool = in;
  std::vector<rtl::Register> regs;
  for (unsigned r = 0; r < 3; ++r) {
    regs.push_back(b.makeRegister("q" + std::to_string(r), 4,
                                  rng.below(16)));
    pool.insert(pool.end(), regs.back().q.begin(), regs.back().q.end());
  }
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  for (unsigned g = 0; g < gates; ++g) {
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  if (withRam) {
    Bus addr, din;
    for (int k = 0; k < 3; ++k) addr.push_back(pick());
    for (int k = 0; k < 4; ++k) din.push_back(pick());
    std::vector<std::uint8_t> init(8);
    for (auto& v : init) v = static_cast<std::uint8_t>(rng.below(16));
    Bus q = b.ram("m", 3, 4, addr, din, pick(), init);
    pool.insert(pool.end(), q.begin(), q.end());
    for (int k = 0; k < 4; ++k) {
      pool.push_back(b.lxor(pick(), pick()));
    }
  }
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pick());
    b.connect(r, d);
  }
  Bus named;
  for (int k = 0; k < 4; ++k) named.push_back(b.lxor(pick(), pick()));
  b.nameBus("sig", named);
  for (auto n : named) pool.push_back(n);
  Bus out;
  for (int k = 0; k < 8; ++k) out.push_back(pick());
  b.output("out", out);
  return b.finish();
}

// -------------------------------------------- net-for-net random designs -----

TEST(CompiledEquivalence, RandomDesignsNetForNetUnderFaultCommands) {
  // ~200 random designs; every net compared every cycle while random
  // simulator commands (the VFIT injection vocabulary) hit both simulators:
  // the scalar command on the event-driven one, its lane-API counterpart on
  // all 64 lanes of the compiled one. Lane 0 must match the event-driven
  // simulator and every other lane must match lane 0.
  using Word = sim::CompiledSimulator::Word;
  constexpr Word kAll = ~Word{0};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const bool withRam = seed % 4 != 0;
    const Netlist nl = randomDesign(seed, 30, withRam);
    sim::Simulator ev(nl);
    sim::CompiledSimulator cp(nl);

    Rng rng(seed * 7919 + 1);
    std::vector<netlist::NetId> forceable;
    for (const auto& g : nl.gates()) forceable.push_back(g.out);

    for (int c = 0; c < 25; ++c) {
      const std::uint64_t stimulus = rng.below(256);
      ev.setInput("in", stimulus);
      cp.setInput("in", stimulus);

      // Random fault command, identical on both simulators.
      const unsigned op = static_cast<unsigned>(rng.below(6));
      if (op == 0 && !forceable.empty()) {
        const auto net = forceable[rng.below(forceable.size())];
        const bool v = rng.coin();
        ev.force(net, v);
        cp.forceLanes(net, kAll, v ? kAll : 0);
        cp.settle();
      } else if (op == 1 && !forceable.empty()) {
        const auto net = forceable[rng.below(forceable.size())];
        ev.release(net);
        cp.releaseLanes(net, kAll);
        cp.settle();
      } else if (op == 2 && nl.flopCount() != 0) {
        const netlist::FlopId f{
            static_cast<std::uint32_t>(rng.below(nl.flopCount()))};
        const bool v = rng.coin();
        ev.depositFlop(f, v);
        cp.depositFlopLanes(f, kAll, v ? kAll : 0);
        cp.settle();
      } else if (op == 3 && nl.ramCount() != 0) {
        const netlist::RamId r{0};
        const std::size_t row = rng.below(nl.ram(r).depth());
        const std::uint64_t v = rng.below(16);
        const std::uint64_t changed = cp.ramWordLane(r, row, 0) ^ v;
        ev.depositRam(r, row, v);
        for (unsigned bit = 0; bit < nl.ram(r).dataBits; ++bit) {
          if ((changed >> bit) & 1) cp.xorRamBitLanes(r, row, bit, kAll);
        }
      }
      ev.step();
      cp.step();

      const std::string at =
          "seed " + std::to_string(seed) + " cycle " + std::to_string(c);
      for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
        const Word w = cp.netWord(netlist::NetId{n});
        ASSERT_EQ(ev.netValue(netlist::NetId{n}), (w & 1) != 0)
            << at << " net " << n << " (" << nl.netName(netlist::NetId{n})
            << ")";
        ASSERT_TRUE(w == 0 || w == kAll) << at << " net " << n;
      }
      for (std::uint32_t f = 0; f < nl.flopCount(); ++f) {
        const Word w = cp.flopWord(netlist::FlopId{f});
        ASSERT_EQ(ev.flopState(netlist::FlopId{f}), (w & 1) != 0)
            << at << " flop " << f;
        ASSERT_TRUE(w == 0 || w == kAll) << at << " flop " << f;
      }
      for (std::uint32_t r = 0; r < nl.ramCount(); ++r) {
        for (std::size_t row = 0; row < nl.ram(netlist::RamId{r}).depth();
             ++row) {
          const std::uint64_t lane0 =
              cp.ramWordLane(netlist::RamId{r}, row, 0);
          ASSERT_EQ(ev.ramWord(netlist::RamId{r}, row), lane0)
              << at << " ram " << r << " row " << row;
          for (unsigned lane = 1; lane < sim::CompiledSimulator::kLanes;
               ++lane) {
            ASSERT_EQ(cp.ramWordLane(netlist::RamId{r}, row, lane), lane0)
                << at << " ram " << r << " row " << row << " lane " << lane;
          }
        }
      }
    }
  }
}

// --------------------------------------- campaign experiment equivalence -----

// The campaign tests' design, built so that outcomes hinge on fault timing.
// Random logic over an LFSR drives the named signals "sig" (VFIT's pulse and
// indetermination targets). Three stage registers each load the one before
// on their own phase of a free-running counter, and only the last is
// observed; a RAM written on another phase feeds the middle stage. A fault
// in a stage, a word or a signal reaches the output only if it is still
// there at the next load, so a window one cycle longer or an injection one
// cycle later changes outcomes.
Netlist campaignDesign() {
  Rng rng(42);
  Builder b;
  rtl::Register phase = b.makeRegister("phase", 3, 0);
  b.connect(phase, b.increment(phase.q));
  rtl::Register lfsr = b.makeRegister("lfsr", 8, 0x5A);
  Bus next{b.lxor(lfsr.q[7],
                  b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])))};
  for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
  b.connect(lfsr, next);

  std::vector<rtl::NetId> pool = lfsr.q;
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  for (unsigned g = 0; g < 24; ++g) {
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  Bus sig;
  for (int k = 0; k < 4; ++k) sig.push_back(b.lxor(pick(), pick()));
  b.nameBus("sig", sig);

  auto stage = [&](const char* name, unsigned loadPhase, const Bus& d) {
    rtl::Register r = b.makeRegister(name, 4, 0);
    b.connect(r, b.bMux(b.eqConst(phase.q, loadPhase), d, r.q));
    return r.q;
  };
  const Bus s1 = stage("s1", 1, sig);
  std::vector<std::uint8_t> init(8);
  for (auto& v : init) v = static_cast<std::uint8_t>(rng.below(16));
  const Bus word = b.ram("m", 3, 4, b.slice(lfsr.q, 2, 3), s1,
                         b.eqConst(phase.q, 3), init);
  const Bus s2 = stage("s2", 5, b.bXor(s1, word));
  b.output("out", stage("s3", 7, s2));
  return b.finish();
}

/// Every field of an outcome, as the campaign journal stores it exactly.
std::string outcomeText(const campaign::ExperimentOutcome& x) {
  return campaign::CampaignJournal::outcomeLine(x);
}

struct ModelClass {
  FaultModel model;
  TargetClass targets;
};

TEST(CompiledEquivalence, CampaignExperimentsFieldForFieldAcrossMatrix) {
  const Netlist nl = campaignDesign();
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  vfit::VfitTool tool(nl, 150, opt);

  const std::vector<ModelClass> matrix = {
      {FaultModel::BitFlip, TargetClass::SequentialFF},
      {FaultModel::BitFlip, TargetClass::MemoryBlockBit},
      {FaultModel::Pulse, TargetClass::CombinationalLut},
      {FaultModel::Pulse, TargetClass::CbInputLine},
      {FaultModel::Indetermination, TargetClass::SequentialFF},
      {FaultModel::Indetermination, TargetClass::CombinationalLut},
  };
  for (const auto& mc : matrix) {
    for (const auto& band : campaign::DurationBand::paperBands()) {
      CampaignSpec spec;
      spec.model = mc.model;
      spec.targets = mc.targets;
      spec.band = band;
      spec.experiments = 30;
      spec.seed = 77;
      const auto pool = tool.enumeratePool(spec);

      std::vector<unsigned> indices(spec.experiments);
      for (unsigned i = 0; i < spec.experiments; ++i) indices[i] = i;
      const auto wave = tool.runWaveAt(spec, pool, indices, 0);
      ASSERT_EQ(wave.size(), spec.experiments);
      for (unsigned i = 0; i < spec.experiments; ++i) {
        const std::string what =
            std::string(campaign::toString(mc.model)) + "/" +
            campaign::toString(mc.targets) + "/" + band.label + " index " +
            std::to_string(i);
        const auto ref = scalarReference(tool, spec, pool, i);
        EXPECT_EQ(wave[i].index, i) << what;
        EXPECT_EQ(wave[i].outcome, ref.outcome) << what;
        EXPECT_EQ(wave[i].modeledSeconds, ref.modeledSeconds) << what;
        EXPECT_EQ(wave[i].configSeconds,
                  ref.commands * vfit::VfitTool::kSecondsPerCommand)
            << what;
        ASSERT_TRUE(wave[i].hasRecord) << what;
        expectRecordMatches(wave[i].record, ref, true, what);
      }
    }
  }
}

TEST(CompiledEquivalence, PartialWavesAndSubsetsMatchFullWaves) {
  // Lane assignment must not matter: any index subset, in any wave split,
  // returns exactly the per-index outcomes.
  const Netlist nl = campaignDesign();
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  vfit::VfitTool tool(nl, 120, opt);

  CampaignSpec spec;
  spec.model = FaultModel::Indetermination;
  spec.targets = TargetClass::CombinationalLut;
  spec.experiments = 63;
  spec.seed = 5;
  const auto pool = tool.enumeratePool(spec);

  std::vector<unsigned> all(63);
  for (unsigned i = 0; i < 63; ++i) all[i] = i;
  const auto full = tool.runWaveAt(spec, pool, all, 0);

  // Singleton waves.
  for (unsigned i : {0u, 17u, 62u}) {
    const std::vector<unsigned> one{i};
    const auto got = tool.runWaveAt(spec, pool, one, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(outcomeText(got[0]), outcomeText(full[i])) << "singleton wave";
  }
  // A sparse subset (resume-gap shape).
  const std::vector<unsigned> sparse{3, 4, 9, 40, 41, 60};
  const auto got = tool.runWaveAt(spec, pool, sparse, 0);
  ASSERT_EQ(got.size(), sparse.size());
  for (std::size_t k = 0; k < sparse.size(); ++k) {
    EXPECT_EQ(outcomeText(got[k]), outcomeText(full[sparse[k]]))
        << "sparse wave";
  }
}

// ------------------------------------------ whole-campaign artifact equality -

std::string artifactString(const campaign::CampaignResult& result) {
  return campaign::toRunArtifact(result, "equiv", /*includeMetrics=*/false)
      .toJson()
      .dump(2);
}

TEST(CompiledEquivalence, WaveBoundarySweepArtifactsIdentical) {
  // 1 / 63 / 64 / 65 / 128 experiments: below, at, and straddling wave
  // boundaries. The campaign's 63-wide waves must serialize byte-identically
  // to the same campaign folded from waves of one, and every record must
  // match the scalar reference.
  const Netlist nl = campaignDesign();
  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  vfit::VfitTool tool(nl, 120, opt);
  for (const unsigned n : {1u, 63u, 64u, 65u, 128u}) {
    CampaignSpec spec;
    spec.model = FaultModel::BitFlip;
    spec.targets = TargetClass::SequentialFF;
    spec.experiments = n;
    spec.seed = 1234;
    const auto pool = tool.enumeratePool(spec);

    campaign::CampaignResult singles;
    singles.spec = spec;
    for (unsigned e = 0; e < n; ++e) {
      singles.fold(tool.runExperimentAt(spec, pool, e, 0));
    }
    const auto result = campaign::runCampaign(spec, {&tool});
    EXPECT_EQ(artifactString(result), artifactString(singles))
        << n << " experiments";
    expectRecordsMatch(tool, spec, result, std::to_string(n) + " experiments");
  }
}

TEST(CompiledEquivalence, ParallelRunnerJobsAndCheckpointInvariance) {
  // Through the sharded runner: --jobs 1 and 8, and a --jobs 8 run resumed
  // from a --checkpoint journal that lost every other outcome (its waves
  // have holes where the journal already holds the result); and twice on
  // one borrowed tool. All produce one artifact string, and every record
  // in it matches the scalar reference.
  const Netlist nl = campaignDesign();
  CampaignSpec spec;
  spec.model = FaultModel::Pulse;
  spec.targets = TargetClass::CombinationalLut;
  spec.experiments = 100;
  spec.seed = 99;

  vfit::VfitOptions opt;
  opt.observedOutputs = {"out"};
  opt.keepRecords = true;
  auto run = [&](unsigned jobs, campaign::CampaignJournal* journal) {
    campaign::ParallelOptions popt;
    popt.jobs = jobs;
    popt.journal = journal;
    popt.resume = journal != nullptr;  // a missing journal starts fresh
    return campaign::ParallelCampaignRunner(
               vfit::vfitEngineFactory(nl, 120, opt), popt)
        .run(spec);
  };
  const auto result = run(1, nullptr);
  const std::string artifact = artifactString(result);
  EXPECT_EQ(artifactString(run(8, nullptr)), artifact);

  const std::string path = ::testing::TempDir() + "compiled-equivalence-" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    campaign::CampaignJournal journal(path);
    run(8, &journal);
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 1 + spec.experiments);  // header + outcomes
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < lines.size(); i += 2) out << lines[i] << "\n";
  }
  {
    campaign::CampaignJournal journal(path);
    EXPECT_EQ(artifactString(run(8, &journal)), artifact) << "resumed";
  }
  std::remove(path.c_str());

  vfit::VfitTool tool(nl, 120, opt);
  for (const char* what : {"borrowed tool", "borrowed tool, second run"}) {
    EXPECT_EQ(artifactString(campaign::runCampaign(spec, {&tool})), artifact)
        << what;
  }
  expectRecordsMatch(tool, spec, result, "jobs 1");
}

// --------------------------------------------------- MC8051 full workload ----

TEST(CompiledEquivalence, Mc8051BubblesortFfAndRamCampaigns) {
  const auto workload = mc8051::bubblesort(6);
  const Netlist nl = mc8051::buildCore(workload.bytes);

  vfit::VfitOptions opt;
  opt.keepRecords = true;
  vfit::VfitTool tool(nl, workload.cycles, opt);

  for (const auto targets :
       {TargetClass::SequentialFF, TargetClass::MemoryBlockBit}) {
    CampaignSpec spec;
    spec.model = FaultModel::BitFlip;
    spec.targets = targets;
    spec.experiments = 40;
    spec.seed = 2006;
    expectRecordsMatch(tool, spec, campaign::runCampaign(spec, {&tool}),
                       campaign::toString(targets));
  }
}

}  // namespace
}  // namespace fades
