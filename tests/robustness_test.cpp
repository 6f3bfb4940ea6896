// Robustness suite: unreliable-link emulation, retry/quarantine semantics
// and the crash-safe checkpoint journal. The invariant under test
// throughout: fault tolerance machinery may change wall-clock and telemetry,
// but never the campaign result - outcomes, records, modeled cost and the
// written artifact stay bit-identical to a fault-free uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/report.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using campaign::CampaignJournal;
using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::EngineFactory;
using campaign::ExperimentOutcome;
using campaign::FaultModel;
using campaign::FsyncPolicy;
using campaign::Outcome;
using campaign::ParallelCampaignRunner;
using campaign::ParallelOptions;
using campaign::TargetClass;
using common::ErrorKind;
using common::FadesError;
using core::FadesOptions;
using core::FadesTool;
using netlist::Unit;

// ------------------------------------------------------- tiny test rig -----

// Same mini multi-unit design as the parallel tests: an 8-bit LFSR, a 4-bit
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

/// Field-for-field, bit-for-bit comparison of two campaign results,
/// quarantine set included.
void expectSameResult(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.latents, b.latents);
  EXPECT_EQ(a.silents, b.silents);
  EXPECT_EQ(a.modeledSeconds.count(), b.modeledSeconds.count());
  EXPECT_EQ(a.modeledSeconds.sum(), b.modeledSeconds.sum());
  EXPECT_EQ(a.modeledSeconds.stddev(), b.modeledSeconds.stddev());
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
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
    SCOPED_TRACE("quarantined " + std::to_string(i));
    EXPECT_EQ(a.quarantined[i].index, b.quarantined[i].index);
    EXPECT_EQ(a.quarantined[i].kind, b.quarantined[i].kind);
    EXPECT_EQ(a.quarantined[i].error, b.quarantined[i].error);
    EXPECT_EQ(a.quarantined[i].attempts, b.quarantined[i].attempts);
  }
}

/// Scratch file removed (with its .tmp sibling) when the test ends.
struct TempPath {
  std::string str;
  explicit TempPath(std::string name) : str(std::move(name)) {
    std::remove(str.c_str());
  }
  ~TempPath() {
    std::remove(str.c_str());
    std::remove((str + ".tmp").c_str());
  }
};

std::string readWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) != 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

void writeWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

/// Cut a journal down to its first `lines` newline-terminated lines, then
/// append a torn fragment - the on-disk picture left by a SIGKILL that
/// landed mid-append.
void simulateKill(const std::string& path, std::size_t lines) {
  const std::string content = readWholeFile(path);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    pos = content.find('\n', pos);
    ASSERT_NE(pos, std::string::npos) << "journal shorter than expected";
    ++pos;
  }
  writeWholeFile(path, content.substr(0, pos) + "{\"index\": 999, \"atte");
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ------------------------------------------------ journal serialization -----

ExperimentOutcome sampleOutcome() {
  ExperimentOutcome o;
  o.index = 41;
  o.outcome = Outcome::Latent;
  o.modeledSeconds = 1.0 / 3.0;       // no finite decimal representation:
  o.configSeconds = 2.0 / 7.0;        // round-trip must be bit-exact anyway
  o.workloadSeconds = 0.1 + 0.2;
  o.hostSeconds = 5e-5;
  o.bytesToDevice = 123456789012345ULL;
  o.bytesFromDevice = 42;
  o.sessions = 3;
  o.attempts = 2;
  o.hasRecord = true;
  o.record.targetName = "lut_3_4";
  o.record.injectCycle = 17;
  o.record.durationCycles = 6.25;
  o.record.outcome = Outcome::Latent;
  o.record.modeledSeconds = 1.0 / 3.0;
  return o;
}

void expectSameOutcome(const ExperimentOutcome& a, const ExperimentOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.attempts, b.attempts);
  if (a.quarantined) {
    EXPECT_EQ(a.failureKind, b.failureKind);
    EXPECT_EQ(a.failureMessage, b.failureMessage);
    return;
  }
  EXPECT_EQ(a.outcome, b.outcome);
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
  }
}

TEST(JournalLine, NormalOutcomeRoundTripsBitExactly) {
  const ExperimentOutcome original = sampleOutcome();
  const std::string line = CampaignJournal::outcomeLine(original);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  ExperimentOutcome parsed;
  ASSERT_TRUE(CampaignJournal::parseOutcomeLine(
      line.substr(0, line.size() - 1), parsed));
  expectSameOutcome(original, parsed);
}

TEST(JournalLine, RecordlessOutcomeRoundTrips) {
  ExperimentOutcome original = sampleOutcome();
  original.hasRecord = false;
  original.record = {};
  ExperimentOutcome parsed;
  const std::string line = CampaignJournal::outcomeLine(original);
  ASSERT_TRUE(CampaignJournal::parseOutcomeLine(
      line.substr(0, line.size() - 1), parsed));
  expectSameOutcome(original, parsed);
}

TEST(JournalLine, QuarantinedOutcomeRoundTrips) {
  ExperimentOutcome original;
  original.index = 7;
  original.quarantined = true;
  original.failureKind = ErrorKind::LinkError;
  original.failureMessage = "readback CRC mismatch persisted through 8 retries";
  original.attempts = 3;
  ExperimentOutcome parsed;
  const std::string line = CampaignJournal::outcomeLine(original);
  ASSERT_TRUE(CampaignJournal::parseOutcomeLine(
      line.substr(0, line.size() - 1), parsed));
  expectSameOutcome(original, parsed);
}

TEST(JournalLine, RejectsMalformedLines) {
  ExperimentOutcome out;
  for (const char* bad : {
           "",                                   // empty
           "not json at all",                    // not JSON
           "[3]",                                // wrong top-level type
           "{}",                                 // missing keys
           "{\"index\": 3}",                     // missing attempts
           "{\"index\": 1, \"attempts\": 1, \"outcome\": \"purple\","
           " \"modeled_seconds\": 0, \"config_seconds\": 0,"
           " \"workload_seconds\": 0, \"host_seconds\": 0,"
           " \"bytes_to_device\": 0, \"bytes_from_device\": 0,"
           " \"sessions\": 0}",                  // unknown outcome name
           "{\"index\": 2, \"attempts\": 1, \"quarantined\": true,"
           " \"kind\": \"noSuchKind\", \"error\": \"x\"}",  // unknown kind
           "{\"schema\": \"fades.journal/1\"}",  // a header, not an outcome
       }) {
    EXPECT_FALSE(CampaignJournal::parseOutcomeLine(bad, out)) << bad;
  }
}

// ------------------------------------------------------ journal file ops -----

TEST(Journal, ResumeReplaysCommittedOutcomes) {
  TempPath path("robustness_journal_replay.jsonl");
  const auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF);
  ExperimentOutcome a = sampleOutcome();
  a.index = 4;
  ExperimentOutcome b = sampleOutcome();
  b.index = 9;
  b.outcome = Outcome::Failure;
  {
    CampaignJournal journal(path.str, FsyncPolicy::EachRecord);
    journal.open(spec, /*resume=*/false);
    journal.append(a);
    journal.append(b);
  }
  CampaignJournal resumed(path.str);
  resumed.open(spec, /*resume=*/true);
  ASSERT_EQ(resumed.completed().size(), 2u);
  ASSERT_TRUE(resumed.has(4));
  ASSERT_TRUE(resumed.has(9));
  EXPECT_FALSE(resumed.has(5));
  expectSameOutcome(a, resumed.completed().at(4));
  expectSameOutcome(b, resumed.completed().at(9));
}

TEST(Journal, ResumeTruncatesTornTailAndKeepsAppending) {
  TempPath path("robustness_journal_torn.jsonl");
  const auto spec = miniSpec(FaultModel::Pulse, TargetClass::CombinationalLut);
  ExperimentOutcome a = sampleOutcome();
  a.index = 1;
  {
    CampaignJournal journal(path.str);
    journal.open(spec, /*resume=*/false);
    journal.append(a);
  }
  // A killed writer leaves half a line; resume must ignore it...
  simulateKill(path.str, 2);  // keep header + outcome, then the torn tail
  ExperimentOutcome b = sampleOutcome();
  b.index = 2;
  {
    CampaignJournal journal(path.str);
    journal.open(spec, /*resume=*/true);
    EXPECT_EQ(journal.completed().size(), 1u);
    EXPECT_TRUE(journal.has(1));
    journal.append(b);  // ...and the next append must not merge into it.
  }
  CampaignJournal verify(path.str);
  verify.open(spec, /*resume=*/true);
  EXPECT_EQ(verify.completed().size(), 2u);
  EXPECT_TRUE(verify.has(1));
  EXPECT_TRUE(verify.has(2));
}

TEST(Journal, ResumeRejectsJournalOfDifferentSpec) {
  TempPath path("robustness_journal_spec.jsonl");
  const auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF);
  {
    CampaignJournal journal(path.str);
    journal.open(spec, /*resume=*/false);
  }
  CampaignSpec other = spec;
  other.seed += 1;  // resuming someone else's campaign would fabricate results
  CampaignJournal journal(path.str);
  try {
    journal.open(other, /*resume=*/true);
    FAIL() << "spec mismatch not detected";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::ConfigError);
  }
}

TEST(Journal, OpenWithoutResumeRecreatesTheFile) {
  TempPath path("robustness_journal_fresh.jsonl");
  const auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF);
  {
    CampaignJournal journal(path.str);
    journal.open(spec, /*resume=*/false);
    journal.append(sampleOutcome());
  }
  CampaignJournal journal(path.str);
  journal.open(spec, /*resume=*/false);
  EXPECT_TRUE(journal.completed().empty());
  journal.close();
  // Only the header line survives the recreation.
  const std::string content = readWholeFile(path.str);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 1);
}

// ----------------------------------------------- kill-and-resume runs -----

TEST(KillResume, ResumedCampaignMatchesUninterruptedRun) {
  const auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF);
  ParallelOptions refOpt;
  refOpt.jobs = 2;
  ParallelCampaignRunner reference(miniFactory(), refOpt);
  const CampaignResult uninterrupted = reference.run(spec);
  const std::string referenceArtifact =
      campaign::toRunArtifact(uninterrupted, "resume_test",
                              /*includeMetrics=*/false)
          .toJson()
          .dump(2);

  for (unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    TempPath path("robustness_resume_" + std::to_string(jobs) + ".jsonl");
    {
      // First run journals every outcome...
      CampaignJournal journal(path.str);
      ParallelOptions popt;
      popt.jobs = jobs;
      popt.journal = &journal;
      ParallelCampaignRunner runner(miniFactory(), popt);
      runner.run(spec);
    }
    // ...then the process "dies", taking a torn trailing line with it and
    // leaving only the header plus 9 committed outcomes.
    simulateKill(path.str, 1 + 9);

    const std::uint64_t resumedBefore =
        counterValue("campaign.resumed_experiments");
    CampaignJournal journal(path.str);
    ParallelOptions popt;
    popt.jobs = jobs;
    popt.journal = &journal;
    popt.resume = true;
    ParallelCampaignRunner runner(miniFactory(), popt);
    const CampaignResult resumed = runner.run(spec);

    expectSameResult(uninterrupted, resumed, "resumed result");
    EXPECT_EQ(campaign::toRunArtifact(resumed, "resume_test",
                                      /*includeMetrics=*/false)
                  .toJson()
                  .dump(2),
              referenceArtifact);
    EXPECT_EQ(counterValue("campaign.resumed_experiments") - resumedBefore, 9u);

    // The journal now covers the whole campaign: one more resume runs
    // nothing new and still reproduces the same result.
    CampaignJournal fullJournal(path.str);
    ParallelOptions fullOpt = popt;
    fullOpt.journal = &fullJournal;
    ParallelCampaignRunner again(miniFactory(), fullOpt);
    const CampaignResult replayed = again.run(spec);
    expectSameResult(uninterrupted, replayed, "fully journaled replay");
  }
}

// ------------------------------------------- link faults, real engine -----

TEST(LinkFaults, RetriedTransfersKeepResultsBitIdentical) {
  const auto& d = MiniDesign::instance();
  const auto spec =
      miniSpec(FaultModel::Pulse, TargetClass::CombinationalLut, 16);

  fpga::Device cleanDevice(d.impl.spec);
  FadesTool cleanTool(cleanDevice, d.impl, d.cycles, miniOptions());
  const CampaignResult baseline = campaign::runCampaign(spec, {&cleanTool});
  ASSERT_EQ(baseline.total(), spec.experiments);

  FadesOptions opt = miniOptions();
  opt.linkFaults.readCrcRate = 0.04;
  opt.linkFaults.writeFailRate = 0.04;
  opt.linkFaults.timeoutRate = 0.004;
  const std::uint64_t faultsBefore = counterValue("config.link_faults_injected");
  const std::uint64_t retriesBefore = counterValue("config.retries");
  fpga::Device faultyDevice(d.impl.spec);
  FadesTool faultyTool(faultyDevice, d.impl, d.cycles, opt);
  const CampaignResult faulty = campaign::runCampaign(spec, {&faultyTool});

  // Faults really fired and were retried away - visible in telemetry only.
  EXPECT_GT(counterValue("config.link_faults_injected"), faultsBefore);
  EXPECT_GT(counterValue("config.retries"), retriesBefore);
  EXPECT_TRUE(faulty.quarantined.empty());
  expectSameResult(baseline, faulty, "serial, link faults vs clean");

  // And the sharded runner under the same faulty link agrees too.
  ParallelOptions popt;
  popt.jobs = 4;
  ParallelCampaignRunner runner(miniFactory(opt), popt);
  expectSameResult(baseline, runner.run(spec), "sharded, link faults");
}

TEST(LinkFaults, QuarantineIsDeterministicAcrossJobCounts) {
  // A hostile link (every transfer faults with ~10% probability) with no
  // transfer-level retries: experiments quarantine after their rerun budget,
  // the campaign still completes, and - because the fault stream is seeded
  // per (experiment, rerun) - the quarantined set is a pure function of the
  // spec, identical for any shard count.
  FadesOptions opt = miniOptions();
  opt.linkFaults.readCrcRate = 0.05;
  opt.linkFaults.writeFailRate = 0.05;
  opt.linkFaults.timeoutRate = 0.005;
  opt.linkRetry.maxRetries = 0;
  const auto spec = miniSpec(FaultModel::BitFlip, TargetClass::SequentialFF);

  const std::uint64_t quarantinedBefore = counterValue("campaign.quarantined");
  std::vector<CampaignResult> results;
  for (unsigned jobs : {1u, 8u}) {
    ParallelOptions popt;
    popt.jobs = jobs;
    ParallelCampaignRunner runner(miniFactory(opt), popt);
    results.push_back(runner.run(spec));
  }
  const CampaignResult& one = results[0];
  const CampaignResult& eight = results[1];

  // The campaign survived: every experiment either completed or quarantined.
  ASSERT_FALSE(one.quarantined.empty());
  EXPECT_EQ(one.total() + one.quarantined.size(), spec.experiments);
  EXPECT_GT(counterValue("campaign.quarantined"), quarantinedBefore);
  for (const auto& q : one.quarantined) {
    EXPECT_EQ(q.kind, ErrorKind::LinkError);
    EXPECT_EQ(q.attempts, campaign::kExperimentAttempts);
    EXPECT_FALSE(q.error.empty());
  }
  expectSameResult(one, eight, "quarantine jobs=1 vs jobs=8");

  // A borrowed tool as the only replica quarantines the same set.
  const auto& d = MiniDesign::instance();
  fpga::Device device(d.impl.spec);
  FadesTool tool(device, d.impl, d.cycles, opt);
  expectSameResult(one, campaign::runCampaign(spec, {&tool}),
                   "quarantine jobs=1 vs borrowed tool");
}

// --------------------------------------- retry semantics, synthetic -----

/// Index-pure engine whose designated indices raise a transient LinkError on
/// their first run and succeed on the rerun - no device behind it, so these
/// tests pin the runner's retry/quarantine logic in isolation.
class FlakyEngine final : public campaign::CampaignEngine {
 public:
  FlakyEngine(std::vector<unsigned> flaky, unsigned failForever = ~0u,
              ErrorKind kind = ErrorKind::LinkError)
      : flaky_(std::move(flaky)), failForever_(failForever), kind_(kind) {}

  std::vector<std::uint32_t> enumeratePool(const CampaignSpec&) override {
    return {0, 1, 2, 3};
  }

  ExperimentOutcome runExperimentAt(const CampaignSpec&,
                                    std::span<const std::uint32_t>,
                                    unsigned index, unsigned rerun) override {
    const bool flaky =
        std::find(flaky_.begin(), flaky_.end(), index) != flaky_.end();
    if (index == failForever_ || (flaky && rerun == 0)) {
      common::raise(kind_, "engine fault at " + std::to_string(index));
    }
    ExperimentOutcome out;
    out.index = index;
    out.outcome = index % 2 == 0 ? Outcome::Silent : Outcome::Latent;
    out.modeledSeconds = 0.5 + 0.01 * index;
    out.sessions = 1;
    return out;
  }

  void recover() override { ++recoveries_; }
  unsigned recoveries() const { return recoveries_; }

 private:
  std::vector<unsigned> flaky_;
  unsigned failForever_;
  ErrorKind kind_;
  unsigned recoveries_ = 0;
};

TEST(RetryPolicy, TransientErrorsAreRetriedAfterRecovery) {
  CampaignSpec spec;
  spec.experiments = 12;
  ParallelOptions popt;
  popt.jobs = 1;
  FlakyEngine* engine = nullptr;
  ParallelCampaignRunner runner(
      [&]() -> std::unique_ptr<campaign::CampaignEngine> {
        auto e = std::make_unique<FlakyEngine>(std::vector<unsigned>{3, 7});
        engine = e.get();
        return e;
      },
      popt);
  const CampaignResult r = runner.run(spec);
  EXPECT_EQ(r.total(), 12u);
  EXPECT_TRUE(r.quarantined.empty());
  // One recover() call per transient failure, before the retry.
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->recoveries(), 2u);
}

TEST(RetryPolicy, PersistentTransientErrorQuarantinesOnlyThatExperiment) {
  CampaignSpec spec;
  spec.experiments = 12;
  ParallelOptions popt;
  popt.jobs = 3;
  ParallelCampaignRunner runner(
      [] {
        return std::make_unique<FlakyEngine>(std::vector<unsigned>{},
                                             /*failForever=*/5);
      },
      popt);
  const CampaignResult r = runner.run(spec);
  EXPECT_EQ(r.total(), 11u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 5u);
  EXPECT_EQ(r.quarantined[0].kind, ErrorKind::LinkError);
  EXPECT_EQ(r.quarantined[0].attempts, campaign::kExperimentAttempts);
}

TEST(RetryPolicy, FatalErrorsStillAbortTheCampaign) {
  CampaignSpec spec;
  spec.experiments = 12;
  ParallelOptions popt;
  popt.jobs = 2;
  ParallelCampaignRunner runner(
      [] {
        // ConfigError is not transient: no retry, no quarantine.
        return std::make_unique<FlakyEngine>(std::vector<unsigned>{},
                                             /*failForever=*/4,
                                             ErrorKind::ConfigError);
      },
      popt);
  EXPECT_THROW(runner.run(spec), FadesError);
}

// ------------------------------------------------- crash-safe writers -----

TEST(CrashSafeWriters, ArtifactWriterLeavesNoTmpBehind) {
  TempPath path("robustness_artifact_out.json");
  obs::writeFile(path.str, "{\"ok\": true}\n");
  EXPECT_EQ(readWholeFile(path.str), "{\"ok\": true}\n");
  std::FILE* tmp = std::fopen((path.str + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CrashSafeWriters, ArtifactWriterReportsUnwritablePath) {
  EXPECT_THROW(
      obs::writeFile("robustness_no_such_dir/artifact.json", "content"),
      std::runtime_error);
}

TEST(CrashSafeWriters, ReportWriterLeavesNoTmpBehind) {
  TempPath path("robustness_report_out.md");
  campaign::writeTextFile(path.str, "## report\n");
  EXPECT_EQ(readWholeFile(path.str), "## report\n");
  std::FILE* tmp = std::fopen((path.str + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CrashSafeWriters, ReportWriterReportsUnwritablePath) {
  EXPECT_THROW(
      campaign::writeTextFile("robustness_no_such_dir/report.md", "content"),
      FadesError);
}

}  // namespace
}  // namespace fades
