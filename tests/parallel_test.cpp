// Determinism-equivalence suite for the campaign executor: the same
// campaign run on one borrowed tool, and sharded across 1, 2 and 8 runner
// replicas, must produce identical outcome tallies, per-experiment records
// and modeled cost - bit-for-bit. Sharding is allowed to change wall-clock
// and nothing else.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::EngineFactory;
using campaign::ExperimentOutcome;
using campaign::FaultModel;
using campaign::Outcome;
using campaign::ParallelCampaignRunner;
using campaign::ParallelOptions;
using campaign::TargetClass;
using common::ErrorKind;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;

// Same mini multi-unit design as the fault tests: an 8-bit LFSR, a 4-bit
// counter, their sum on "out", and a small write-only RAM log.
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

FadesOptions miniOptions() {
  FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

EngineFactory miniFactory(FadesOptions opt = miniOptions()) {
  const auto& d = MiniDesign::instance();
  return core::fadesEngineFactory(d.impl, d.cycles, std::move(opt));
}

/// Field-for-field, bit-for-bit comparison of two campaign results.
void expectSameResult(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.latents, b.latents);
  EXPECT_EQ(a.silents, b.silents);
  EXPECT_EQ(a.modeledSeconds.count(), b.modeledSeconds.count());
  // EXPECT_EQ on doubles asserts exact (bitwise) equality - the point of
  // the index-ordered fold.
  EXPECT_EQ(a.modeledSeconds.sum(), b.modeledSeconds.sum());
  EXPECT_EQ(a.modeledSeconds.mean(), b.modeledSeconds.mean());
  EXPECT_EQ(a.modeledSeconds.stddev(), b.modeledSeconds.stddev());
  EXPECT_EQ(a.modeledSeconds.min(), b.modeledSeconds.min());
  EXPECT_EQ(a.modeledSeconds.max(), b.modeledSeconds.max());
  EXPECT_EQ(a.cost.configSeconds, b.cost.configSeconds);
  EXPECT_EQ(a.cost.workloadSeconds, b.cost.workloadSeconds);
  EXPECT_EQ(a.cost.hostSeconds, b.cost.hostSeconds);
  EXPECT_EQ(a.cost.bytesToDevice, b.cost.bytesToDevice);
  EXPECT_EQ(a.cost.bytesFromDevice, b.cost.bytesFromDevice);
  EXPECT_EQ(a.cost.sessions, b.cost.sessions);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.records[i].targetName, b.records[i].targetName);
    EXPECT_EQ(a.records[i].injectCycle, b.records[i].injectCycle);
    EXPECT_EQ(a.records[i].durationCycles, b.records[i].durationCycles);
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
    EXPECT_EQ(a.records[i].modeledSeconds, b.records[i].modeledSeconds);
  }
}

CampaignSpec miniSpec(FaultModel model, TargetClass targets,
                      unsigned experiments = 24) {
  CampaignSpec spec;
  spec.model = model;
  spec.targets = targets;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = DurationBand::shortBand();
  spec.experiments = experiments;
  spec.seed = 77;
  return spec;
}

// ------------------------------------------- shard-count invariance -----

class ShardInvariance
    : public ::testing::TestWithParam<std::pair<FaultModel, TargetClass>> {};

TEST_P(ShardInvariance, OneTwoAndEightShardsAgreeWithSerial) {
  const auto [model, targets] = GetParam();
  const auto spec = miniSpec(model, targets);

  // Serial reference: the executor on one borrowed tool, twice, so the
  // second run starts from whatever the first left on the device.
  const auto& d = MiniDesign::instance();
  fpga::Device device(d.impl.spec);
  FadesTool tool(device, d.impl, d.cycles, miniOptions());
  const CampaignResult serial = campaign::runCampaign(spec, {&tool});
  ASSERT_EQ(serial.total(), spec.experiments);
  ASSERT_EQ(serial.records.size(), spec.experiments);
  expectSameResult(serial, campaign::runCampaign(spec, {&tool}),
                   "borrowed tool, second run");

  for (unsigned jobs : {1u, 2u, 8u}) {
    ParallelOptions popt;
    popt.jobs = jobs;
    ParallelCampaignRunner runner(miniFactory(), popt);
    const CampaignResult sharded = runner.run(spec);
    expectSameResult(serial, sharded, "jobs=" + std::to_string(jobs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ShardInvariance,
    ::testing::Values(
        std::pair{FaultModel::BitFlip, TargetClass::SequentialFF},
        std::pair{FaultModel::BitFlip, TargetClass::MemoryBlockBit},
        std::pair{FaultModel::Pulse, TargetClass::CombinationalLut},
        std::pair{FaultModel::Indetermination, TargetClass::SequentialFF},
        std::pair{FaultModel::Delay, TargetClass::CombinationalLine}));

TEST(ParallelCampaign, RepeatedRunsOnOneRunnerStayIdentical) {
  // Engine replicas are reused across run() calls; the stateless derivation
  // means a reused (dirty) replica still reproduces the campaign exactly.
  ParallelOptions popt;
  popt.jobs = 3;
  ParallelCampaignRunner runner(miniFactory(), popt);
  const auto spec = miniSpec(FaultModel::Pulse, TargetClass::CombinationalLut);
  const auto first = runner.run(spec);
  const auto second = runner.run(spec);
  expectSameResult(first, second, "rerun on reused replicas");
}

TEST(ParallelCampaign, MoreShardsThanExperiments) {
  ParallelOptions popt;
  popt.jobs = 8;
  ParallelCampaignRunner runner(miniFactory(), popt);
  auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF, 3);
  const auto r = runner.run(spec);
  EXPECT_EQ(r.total(), 3u);
  EXPECT_EQ(r.records.size(), 3u);
}

TEST(ParallelCampaign, JobsZeroResolvesToHardwareConcurrency) {
  ParallelOptions popt;
  popt.jobs = 0;
  ParallelCampaignRunner runner(miniFactory(), popt);
  EXPECT_GE(runner.jobs(), 1u);
}

// ---------------------------------------------- synthetic engine tests -----

/// Deterministic engine computed from the index alone - no device behind
/// it, so these tests exercise the runner's scheduling and merge logic in
/// isolation (and fast).
class SyntheticEngine final : public campaign::CampaignEngine {
 public:
  explicit SyntheticEngine(unsigned failAt = ~0u) : failAt_(failAt) {}

  std::vector<std::uint32_t> enumeratePool(const CampaignSpec& spec) override {
    return {0, 1, 2, static_cast<std::uint32_t>(spec.seed & 0xff)};
  }

  ExperimentOutcome runExperimentAt(const CampaignSpec& /*spec*/,
                                    std::span<const std::uint32_t> pool,
                                    unsigned index,
                                    unsigned /*rerun*/) override {
    if (index == failAt_) throw std::runtime_error("synthetic failure");
    ExperimentOutcome out;
    out.index = index;
    out.outcome = index % 3 == 0   ? Outcome::Failure
                  : index % 3 == 1 ? Outcome::Latent
                                   : Outcome::Silent;
    out.modeledSeconds = 0.25 + 0.001 * index;
    out.configSeconds = 0.1 * index;
    out.workloadSeconds = 0.5;
    out.hostSeconds = 0.025;
    out.bytesToDevice = 10 + index;
    out.bytesFromDevice = pool.size();
    out.sessions = 1;
    out.hasRecord = true;
    out.record.targetName = "t" + std::to_string(index);
    out.record.injectCycle = index;
    out.record.durationCycles = 1.5;
    out.record.outcome = out.outcome;
    out.record.modeledSeconds = out.modeledSeconds;
    return out;
  }

 private:
  unsigned failAt_;
};

TEST(ParallelCampaign, MergePreservesIndexOrderAcrossShardCounts) {
  CampaignSpec spec;
  spec.experiments = 57;  // deliberately not a multiple of the job counts
  spec.seed = 9;
  CampaignResult reference;
  for (unsigned jobs : {1u, 2u, 5u, 8u}) {
    ParallelOptions popt;
    popt.jobs = jobs;
    ParallelCampaignRunner runner(
        [] { return std::make_unique<SyntheticEngine>(); }, popt);
    const auto r = runner.run(spec);
    ASSERT_EQ(r.records.size(), 57u);
    for (unsigned i = 0; i < 57; ++i) {
      EXPECT_EQ(r.records[i].targetName, "t" + std::to_string(i));
    }
    if (jobs == 1) {
      reference = r;
    } else {
      expectSameResult(reference, r, "jobs=" + std::to_string(jobs));
    }
  }
}

TEST(ParallelCampaign, WorkerExceptionPropagates) {
  ParallelOptions popt;
  popt.jobs = 4;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(/*failAt=*/13); }, popt);
  CampaignSpec spec;
  spec.experiments = 40;
  EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(ParallelCampaign, FactoryExceptionPropagates) {
  ParallelOptions popt;
  popt.jobs = 4;
  ParallelCampaignRunner runner(
      []() -> std::unique_ptr<campaign::CampaignEngine> {
        throw std::runtime_error("no replica for you");
      },
      popt);
  CampaignSpec spec;
  spec.experiments = 8;
  EXPECT_THROW(runner.run(spec), std::runtime_error);
}

TEST(ParallelCampaign, NullEngineFromFactoryIsRejected) {
  ParallelOptions popt;
  popt.jobs = 2;
  ParallelCampaignRunner runner(
      []() -> std::unique_ptr<campaign::CampaignEngine> { return nullptr; },
      popt);
  CampaignSpec spec;
  spec.experiments = 4;
  EXPECT_THROW(runner.run(spec), common::FadesError);
}

TEST(ParallelCampaign, EmptyFactoryIsRejected) {
  EXPECT_THROW(ParallelCampaignRunner(EngineFactory{}), common::FadesError);
}

// ------------------------------------------------- progress heartbeat -----

/// Capture structured log records for the duration of a test.
class SinkCapture {
 public:
  SinkCapture() {
    obs::Logger::global().setSink(
        [this](const obs::LogRecord& r) { records_.push_back(r); });
  }
  ~SinkCapture() { obs::Logger::global().setSink({}); }
  const std::vector<obs::LogRecord>& records() const { return records_; }

 private:
  std::vector<obs::LogRecord> records_;
};

TEST(ParallelCampaign, HeartbeatAggregatesAcrossShards) {
  SinkCapture capture;
  CampaignSpec spec;
  spec.experiments = 20;
  ParallelOptions popt;
  popt.jobs = 4;
  popt.progressInterval = 5;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(); }, popt);
  const auto r = runner.run(spec);
  ASSERT_EQ(r.total(), 20u);

  // One campaign-level heartbeat per interval - not one per shard - with
  // strictly increasing campaign-wide "done" counts.
  std::vector<unsigned> done;
  for (const auto& rec : capture.records()) {
    if (rec.message != "campaign progress") continue;
    for (const auto& f : rec.fields) {
      if (f.key == "done") {
        done.push_back(static_cast<unsigned>(std::stoul(f.value)));
      }
    }
  }
  EXPECT_EQ(done, (std::vector<unsigned>{5, 10, 15, 20}));
  EXPECT_DOUBLE_EQ(
      obs::Registry::global().gauge("campaign.progress_pct").value(), 100.0);
}

TEST(ParallelCampaign, HeartbeatFinalLineCarriesFullTallies) {
  SinkCapture capture;
  CampaignSpec spec;
  spec.experiments = 12;
  ParallelOptions popt;
  popt.jobs = 3;
  popt.progressInterval = 12;
  ParallelCampaignRunner runner(
      [] { return std::make_unique<SyntheticEngine>(); }, popt);
  const auto r = runner.run(spec);

  const obs::LogRecord* last = nullptr;
  for (const auto& rec : capture.records()) {
    if (rec.message == "campaign progress") last = &rec;
  }
  ASSERT_NE(last, nullptr);
  auto field = [&](const std::string& key) -> std::string {
    for (const auto& f : last->fields) {
      if (f.key == key) return f.value;
    }
    return "";
  };
  EXPECT_EQ(field("done"), "12");
  EXPECT_EQ(field("total"), "12");
  EXPECT_EQ(field("failures"), std::to_string(r.failures));
  EXPECT_EQ(field("latents"), std::to_string(r.latents));
  EXPECT_EQ(field("silents"), std::to_string(r.silents));
}

// ------------------------------------------- lease executor (waves) -----

/// Index-pure engine with four lanes. It records every wave and every
/// single experiment it runs, and fails any wave containing `failWaveWith`
/// with a transient LinkError (single runs of that index succeed).
class WaveEngine final : public campaign::CampaignEngine {
 public:
  explicit WaveEngine(unsigned failWaveWith = ~0u)
      : failWaveWith_(failWaveWith) {}

  static ExperimentOutcome outcomeFor(unsigned index) {
    ExperimentOutcome out;
    out.index = index;
    out.outcome = index % 2 == 0 ? Outcome::Latent : Outcome::Failure;
    out.modeledSeconds = 1.0 + 0.01 * index;
    out.hasRecord = true;
    out.record.targetName = "t" + std::to_string(index);
    out.record.injectCycle = index;
    out.record.outcome = out.outcome;
    out.record.modeledSeconds = out.modeledSeconds;
    return out;
  }

  std::vector<std::uint32_t> enumeratePool(const CampaignSpec&) override {
    return {0, 1, 2, 3};
  }

  ExperimentOutcome runExperimentAt(const CampaignSpec&,
                                    std::span<const std::uint32_t>,
                                    unsigned index, unsigned rerun) override {
    singles.emplace_back(index, rerun);
    return outcomeFor(index);
  }

  unsigned waveWidth() const override { return 4; }

  std::vector<ExperimentOutcome> runWaveAt(
      const CampaignSpec&, std::span<const std::uint32_t>,
      std::span<const unsigned> indices, unsigned) override {
    waves.emplace_back(indices.begin(), indices.end());
    if (std::find(indices.begin(), indices.end(), failWaveWith_) !=
        indices.end()) {
      common::raise(ErrorKind::LinkError, "wave lost its link");
    }
    std::vector<ExperimentOutcome> out;
    for (const unsigned e : indices) out.push_back(outcomeFor(e));
    return out;
  }

  ExperimentOutcome synthesizeOutcome(
      const CampaignSpec&, std::span<const std::uint32_t>, unsigned index,
      const ExperimentOutcome& representative) override {
    ExperimentOutcome out = outcomeFor(index);
    out.outcome = out.record.outcome = representative.outcome;
    out.record.prunedFrom = static_cast<std::int64_t>(representative.index);
    return out;
  }

  void recover() override { ++recoveries; }

  std::vector<std::vector<unsigned>> waves;
  std::vector<std::pair<unsigned, unsigned>> singles;  // (index, rerun)
  unsigned recoveries = 0;

 private:
  unsigned failWaveWith_;
};

std::vector<unsigned> indexRange(unsigned first, unsigned count) {
  std::vector<unsigned> v(count);
  for (unsigned i = 0; i < count; ++i) v[i] = first + i;
  return v;
}

std::vector<std::size_t> waveSizes(const WaveEngine& engine) {
  std::vector<std::size_t> sizes;
  for (const auto& w : engine.waves) sizes.push_back(w.size());
  return sizes;
}

obs::Counter& testQuarantine() {
  return obs::Registry::global().counter("test.quarantined");
}

TEST(RunLease, CutsTheLeaseIntoWavesOfTheEngineWidth) {
  WaveEngine engine;
  const CampaignSpec spec;
  const auto pool = engine.enumeratePool(spec);
  const auto indices = indexRange(20, 10);
  std::vector<ExperimentOutcome> got;
  EXPECT_TRUE(campaign::runLease(engine, spec, pool, indices, 3,
                                 testQuarantine(),
                                 [&](ExperimentOutcome o) {
                                   got.push_back(std::move(o));
                                   return true;
                                 }));
  EXPECT_EQ(waveSizes(engine), (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_TRUE(engine.singles.empty());
  EXPECT_EQ(engine.recoveries, 0u);
  ASSERT_EQ(got.size(), 10u);
  for (unsigned i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].index, indices[i]);
    EXPECT_EQ(got[i].attempts, 1u);
  }
}

TEST(RunLease, TransientWaveErrorRecoversOnceThenRunsEachIndexOnce) {
  WaveEngine engine(/*failWaveWith=*/25);  // the second wave: 24..27
  const CampaignSpec spec;
  const auto pool = engine.enumeratePool(spec);
  const auto indices = indexRange(20, 10);
  std::vector<ExperimentOutcome> got;
  EXPECT_TRUE(campaign::runLease(engine, spec, pool, indices, 3,
                                 testQuarantine(),
                                 [&](ExperimentOutcome o) {
                                   got.push_back(std::move(o));
                                   return true;
                                 }));
  EXPECT_EQ(engine.recoveries, 1u);
  EXPECT_EQ(waveSizes(engine), (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(engine.singles,
            (std::vector<std::pair<unsigned, unsigned>>{
                {24, 0}, {25, 0}, {26, 0}, {27, 0}}));
  ASSERT_EQ(got.size(), 10u);
  for (unsigned i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].index, indices[i]);
    EXPECT_EQ(got[i].attempts, 1u);
    EXPECT_FALSE(got[i].quarantined);
  }
}

TEST(RunLease, DoneReturningFalseEndsTheLease) {
  WaveEngine engine;
  const CampaignSpec spec;
  const auto pool = engine.enumeratePool(spec);
  const auto indices = indexRange(0, 10);
  unsigned calls = 0;
  EXPECT_FALSE(campaign::runLease(engine, spec, pool, indices, 3,
                                  testQuarantine(),
                                  [&](ExperimentOutcome) {
                                    return ++calls < 5;
                                  }));
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(waveSizes(engine), (std::vector<std::size_t>{4, 4}));
}

TEST(RunLease, ExceptionFromDonePropagatesWithoutRecoveryOrRerun) {
  // A worker's heartbeat inside `done` can lose the coordinator link. That
  // LinkError is the wire's, not the engine's: it must not be mistaken for
  // a transient wave failure.
  WaveEngine engine;
  const CampaignSpec spec;
  const auto pool = engine.enumeratePool(spec);
  const auto indices = indexRange(0, 10);
  unsigned calls = 0;
  try {
    campaign::runLease(engine, spec, pool, indices, 3, testQuarantine(),
                       [&](ExperimentOutcome) -> bool {
                         if (++calls == 2) {
                           common::raise(ErrorKind::LinkError,
                                         "coordinator closed");
                         }
                         return true;
                       });
    FAIL() << "the sink's LinkError must propagate";
  } catch (const common::FadesError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::LinkError);
  }
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(engine.recoveries, 0u);
  EXPECT_EQ(waveSizes(engine), (std::vector<std::size_t>{4}));
  EXPECT_TRUE(engine.singles.empty());
}

TEST(ParallelCampaign, LeasesSkipResumedAndCollapsedIndicesSoWavesStayFull) {
  // 40 experiments: 0..4 come back from the journal, and a prune plan
  // collapses 9..11 onto 8 and 21..26 onto 20. The 26 left to run must go
  // out as six full waves of four and one of two, not as waves with holes
  // where the skipped indices sit.
  CampaignSpec spec;
  spec.experiments = 40;
  spec.seed = 5;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("fades-dense-lease-" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(path);
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    for (unsigned i = 0; i < 5; ++i) {
      ExperimentOutcome o = WaveEngine::outcomeFor(i);
      o.attempts = 1;
      journal.append(o);
    }
  }
  campaign::PrunePlan plan;
  plan.spec = spec;
  plan.poolSize = 4;
  campaign::PruneClass a;
  a.representative = 8;
  a.members = {9, 10, 11};
  campaign::PruneClass b;
  b.representative = 20;
  b.members = {21, 22, 23, 24, 25, 26};
  plan.classes = {a, b};

  campaign::CampaignJournal journal(path.string());
  ParallelOptions popt;
  popt.jobs = 1;
  popt.journal = &journal;
  popt.resume = true;
  popt.prunePlan = &plan;
  WaveEngine* engine = nullptr;
  ParallelCampaignRunner runner(
      [&]() -> std::unique_ptr<campaign::CampaignEngine> {
        auto e = std::make_unique<WaveEngine>();
        engine = e.get();
        return e;
      },
      popt);
  const CampaignResult r = runner.run(spec);
  journal.close();
  std::filesystem::remove(path);

  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(waveSizes(*engine),
            (std::vector<std::size_t>{4, 4, 4, 4, 4, 4, 2}));
  EXPECT_EQ(engine->waves.front(), (std::vector<unsigned>{5, 6, 7, 8}));
  EXPECT_EQ(engine->waves[1], (std::vector<unsigned>{12, 13, 14, 15}));
  EXPECT_TRUE(engine->singles.empty());
  ASSERT_EQ(r.records.size(), 40u);
  for (unsigned i = 0; i < 40; ++i) {
    EXPECT_EQ(r.records[i].targetName, "t" + std::to_string(i));
  }
  EXPECT_EQ(r.records[10].prunedFrom, 8);
  EXPECT_EQ(r.records[10].outcome, Outcome::Latent);
  EXPECT_EQ(r.records[22].prunedFrom, 20);
  EXPECT_EQ(r.records[12].prunedFrom, -1);
}

}  // namespace
}  // namespace fades
