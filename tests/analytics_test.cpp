// Vulnerability-analytics suite: loader coverage for fades.run/1 and
// fades.journal/1 inputs, determinism of the fades.report/1 document across
// shard counts and checkpoint/resume, the committed golden report, and the
// Bubblesort acceptance campaign (component ranking + PC attribution).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/analytics.hpp"
#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "mc8051/workloads.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using analytics::CampaignInput;
using analytics::VulnerabilityReport;
using campaign::CampaignResult;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::ExperimentRecord;
using campaign::FaultModel;
using campaign::Outcome;
using campaign::TargetClass;
using netlist::Unit;

// Same mini multi-unit design as the fault/parallel tests: an 8-bit LFSR,
// a 4-bit counter, their sum on "out", and a small write-only RAM log.
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

core::FadesOptions miniOptions() {
  core::FadesOptions o;
  o.observedOutputs = {"out"};
  o.keepRecords = true;
  return o;
}

CampaignSpec miniSpec(unsigned experiments = 24) {
  CampaignSpec spec;
  spec.model = FaultModel::BitFlip;
  spec.targets = TargetClass::SequentialFF;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = DurationBand::shortBand();
  spec.experiments = experiments;
  spec.seed = 77;
  return spec;
}

CampaignResult runMiniCampaign(unsigned jobs, campaign::ParallelOptions popt =
                                                  campaign::ParallelOptions{}) {
  const auto& d = MiniDesign::instance();
  popt.jobs = jobs;
  campaign::ParallelCampaignRunner runner(
      core::fadesEngineFactory(d.impl, d.cycles, miniOptions()), popt);
  return runner.run(miniSpec());
}

/// Scratch file removed (with its .tmp sibling) when the test ends.
struct TempPath {
  std::string str;
  explicit TempPath(const std::string& name)
      : str(::testing::TempDir() + "/" + name) {
    std::remove(str.c_str());
  }
  ~TempPath() {
    std::remove(str.c_str());
    std::remove((str + ".tmp").c_str());
  }
};

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeWholeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

ExperimentRecord makeRecord(const char* target, const char* component,
                            std::uint64_t inject, Outcome outcome,
                            std::int64_t pc, std::int64_t opcode,
                            std::int64_t detect) {
  ExperimentRecord rec;
  rec.targetName = target;
  rec.injectCycle = inject;
  rec.durationCycles = 2.0;
  rec.outcome = outcome;
  rec.modeledSeconds = 0.25;
  rec.component = component;
  rec.pc = pc;
  rec.opcode = opcode;
  rec.detectCycle = detect;
  return rec;
}

/// Fixed record set used by the aggregation and golden tests.
std::vector<CampaignInput> fixedInputs() {
  CampaignInput input;
  input.path = "(memory)";
  input.schema = "fades.run/1";
  input.name = "fixed";
  // alu: 2/3 failures; registers: 1/4 failures; fsm: all silent.
  input.records.push_back(
      makeRecord("alu_a", "alu", 10, Outcome::Failure, 0x00, 0x74, 12));
  input.records.push_back(
      makeRecord("alu_b", "alu", 11, Outcome::Failure, 0x00, 0x74, 15));
  input.records.push_back(
      makeRecord("alu_c", "alu", 20, Outcome::Silent, 0x02, 0x04, -1));
  input.records.push_back(
      makeRecord("reg_a", "registers", 30, Outcome::Failure, 0x03, 0x80, 31));
  input.records.push_back(
      makeRecord("reg_b", "registers", 31, Outcome::Latent, 0x03, 0x80, -1));
  input.records.push_back(
      makeRecord("reg_c", "registers", 32, Outcome::Silent, 0x03, 0x80, -1));
  input.records.push_back(
      makeRecord("reg_d", "registers", 33, Outcome::Silent, -1, -1, -1));
  input.records.push_back(
      makeRecord("fsm_a", "fsm", 40, Outcome::Silent, 0x02, 0x04, -1));
  return {std::move(input)};
}

// ------------------------------------------------------------ aggregation ---

TEST(Analytics, BasisPointsRoundHalfUpAndRankingsSort) {
  const auto report = analytics::buildReport(fixedInputs());
  EXPECT_EQ(report.totals.experiments, 8u);
  EXPECT_EQ(report.totals.failures, 3u);
  // 3/8 = 37.5 % rounds half up to 3750 bp exactly.
  EXPECT_EQ(report.totals.failureBp, 3750u);

  ASSERT_EQ(report.components.size(), 3u);
  // alu (6667 bp) > registers (2500 bp) > fsm (0 bp).
  EXPECT_EQ(report.components[0].component, "alu");
  EXPECT_EQ(report.components[0].slice.failureBp, 6667u);
  EXPECT_EQ(report.components[1].component, "registers");
  EXPECT_EQ(report.components[1].slice.failureBp, 2500u);
  EXPECT_EQ(report.components[2].component, "fsm");
  EXPECT_EQ(report.components[2].slice.failureBp, 0u);

  // PC table ascends, with the untraced bucket (-1) first.
  ASSERT_GE(report.pcs.size(), 3u);
  EXPECT_EQ(report.pcs[0].pc, -1);
  EXPECT_EQ(report.pcs[0].mnemonic, "(untraced)");
  EXPECT_EQ(report.pcs[1].pc, 0x00);
  EXPECT_EQ(report.pcs[1].mnemonic, "MOV A,#imm");

  // Latency buckets: 12-10=2 and 15-11=4 and 31-30=1 -> buckets 1, 2-3, 4-7.
  ASSERT_EQ(report.latency.size(), 3u);
  EXPECT_EQ(report.latency[0].lo, 1u);
  EXPECT_EQ(report.latency[0].count, 1u);
  EXPECT_EQ(report.latency[1].lo, 2u);
  EXPECT_EQ(report.latency[1].hi, 3u);
  EXPECT_EQ(report.latency[2].lo, 4u);
  EXPECT_EQ(report.latency[2].hi, 7u);
  EXPECT_EQ(report.detected, 3u);
  EXPECT_EQ(report.traced, 7u);
}

TEST(Analytics, MarkdownAndCsvRenderTheRanking) {
  const auto report = analytics::buildReport(fixedInputs());
  const auto md = analytics::toMarkdown(report);
  EXPECT_NE(md.find("## Component ranking"), std::string::npos);
  EXPECT_NE(md.find("| alu |"), std::string::npos);
  EXPECT_NE(md.find("66.67"), std::string::npos);
  EXPECT_NE(md.find("## PC attribution"), std::string::npos);
  EXPECT_NE(md.find("0x0003"), std::string::npos);
  const auto csv = analytics::toCsv(report);
  EXPECT_NE(csv.find("component,experiments,failures"), std::string::npos);
  EXPECT_NE(csv.find("alu,3,2,0,1,6667,0,3333"), std::string::npos);
}

// ----------------------------------------------------------------- loaders --

TEST(Analytics, LoadsArtifactJsonJsonlAndJournal) {
  const auto result = runMiniCampaign(1);
  ASSERT_FALSE(result.records.empty());
  const auto artifact =
      campaign::toRunArtifact(result, "mini", /*includeMetrics=*/false);

  TempPath json("analytics_in.json");
  TempPath jsonl("analytics_in.jsonl");
  artifact.writeJson(json.str);
  artifact.writeJsonl(jsonl.str);

  const auto fromJson = analytics::loadRunArtifact(json.str);
  const auto fromJsonl = analytics::loadRunArtifact(jsonl.str);
  EXPECT_EQ(fromJson.name, "mini");
  EXPECT_EQ(fromJson.records.size(), result.records.size());
  EXPECT_EQ(fromJsonl.records.size(), result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(fromJson.records[i].targetName, result.records[i].targetName);
    EXPECT_EQ(fromJson.records[i].component, result.records[i].component);
    EXPECT_EQ(fromJson.records[i].detectCycle, result.records[i].detectCycle);
    EXPECT_EQ(fromJsonl.records[i].outcome, result.records[i].outcome);
  }

  // The journal written live by a campaign loads to the same records.
  TempPath journalPath("analytics_in.journal");
  {
    campaign::CampaignJournal journal(journalPath.str);
    campaign::ParallelOptions popt;
    popt.journal = &journal;
    (void)runMiniCampaign(1, popt);
  }
  const auto fromJournal = analytics::loadJournal(journalPath.str);
  EXPECT_EQ(fromJournal.schema, "fades.journal/1");
  EXPECT_EQ(fromJournal.records.size(), result.records.size());

  // An outcome line written twice (a resumed writer re-appending an index)
  // folds once, as campaign resume folds it.
  const std::string text = readWholeFile(journalPath.str);
  const std::size_t header = text.find('\n') + 1;
  const std::size_t first = text.find('\n', header) + 1;
  TempPath duplicated("analytics_duplicated.journal");
  writeWholeFile(duplicated.str,
                 text + text.substr(header, first - header));
  EXPECT_EQ(analytics::loadJournal(duplicated.str).records.size(),
            result.records.size());

  // Directory scan classifies all four by schema.
  const auto inputs = analytics::loadInputs({json.str, jsonl.str,
                                             journalPath.str,
                                             duplicated.str});
  ASSERT_EQ(inputs.size(), 4u);
  EXPECT_EQ(analytics::buildReport(inputs).totals.experiments,
            4 * result.records.size());
}

TEST(Analytics, RejectsForeignFiles) {
  TempPath bogus("analytics_bogus.json");
  writeWholeFile(bogus.str, "{\"schema\": \"something.else/9\"}\n");
  EXPECT_THROW(analytics::loadInputs({bogus.str}), common::FadesError);
  TempPath missing("analytics_missing.json");
  EXPECT_THROW(analytics::loadInputs({missing.str}), common::FadesError);
}

TEST(Analytics, ZeroExperimentArtifactsFoldToZeroBasisPoints) {
  // A campaign that kept no records (or was killed right after the header)
  // must aggregate to a clean all-zero report, not a division by zero.
  TempPath emptyRun("analytics_empty_run.json");
  writeWholeFile(emptyRun.str,
                 "{\"schema\": \"fades.run/1\", \"name\": \"empty\", "
                 "\"records\": []}\n");
  TempPath headerJsonl("analytics_header_only.jsonl");
  writeWholeFile(headerJsonl.str,
                 "{\"schema\": \"fades.run/1\", \"name\": \"empty\"}\n");
  TempPath headerJournal("analytics_header_only.journal");
  writeWholeFile(headerJournal.str,
                 "{\"schema\": \"fades.journal/1\", \"spec\": {}}\n");

  const auto inputs = analytics::loadInputs(
      {emptyRun.str, headerJsonl.str, headerJournal.str});
  ASSERT_EQ(inputs.size(), 3u);
  for (const auto& in : inputs) EXPECT_TRUE(in.records.empty()) << in.path;

  const auto report = analytics::buildReport(inputs);
  EXPECT_EQ(report.totals.experiments, 0u);
  EXPECT_EQ(report.totals.failureBp, 0u);
  EXPECT_EQ(report.totals.latentBp, 0u);
  EXPECT_EQ(report.totals.silentBp, 0u);
  EXPECT_TRUE(report.components.empty());
  // Renderers must survive the empty report too.
  EXPECT_NE(analytics::toMarkdown(report).find("experiments"),
            std::string::npos);
  EXPECT_FALSE(analytics::toCsv(report).empty());
}

TEST(Analytics, EmptyJournalFileIsRejectedNotFoldedAsZero) {
  // No header at all means the file is not a journal; folding it silently
  // as zero experiments would hide the broken input.
  TempPath empty("analytics_empty.journal");
  writeWholeFile(empty.str, "");
  EXPECT_THROW(analytics::loadJournal(empty.str), common::FadesError);
  // A torn header (no newline yet) is equally not loadable.
  TempPath torn("analytics_torn.journal");
  writeWholeFile(torn.str, "{\"schema\": \"fades.jou");
  EXPECT_THROW(analytics::loadJournal(torn.str), common::FadesError);
}

// ------------------------------------------------------------- determinism --

TEST(Analytics, ReportIsByteIdenticalAcrossJobCounts) {
  const auto r1 = runMiniCampaign(1);
  const auto r8 = runMiniCampaign(8);

  TempPath a1("analytics_jobs1.json");
  TempPath a8("analytics_jobs8.json");
  campaign::toRunArtifact(r1, "mini", false).writeJson(a1.str);
  campaign::toRunArtifact(r8, "mini", false).writeJson(a8.str);
  // The artifacts themselves are byte-identical...
  EXPECT_EQ(readWholeFile(a1.str), readWholeFile(a8.str));
  // ...and so are the reports folded from them.
  const auto report1 =
      analytics::buildReport(analytics::loadInputs({a1.str}));
  const auto report8 =
      analytics::buildReport(analytics::loadInputs({a8.str}));
  EXPECT_EQ(analytics::toJson(report1).dump(2),
            analytics::toJson(report8).dump(2));
  EXPECT_EQ(analytics::toMarkdown(report1), analytics::toMarkdown(report8));
  EXPECT_EQ(analytics::toCsv(report1), analytics::toCsv(report8));
}

TEST(Analytics, ReportFromKilledAndResumedJournalIsByteIdentical) {
  // Uninterrupted journal.
  TempPath full("analytics_full.journal");
  {
    campaign::CampaignJournal journal(full.str);
    campaign::ParallelOptions popt;
    popt.journal = &journal;
    (void)runMiniCampaign(1, popt);
  }

  // Simulate a kill after 5 committed outcomes plus a torn line, resume.
  TempPath resumed("analytics_resumed.journal");
  {
    const std::string content = readWholeFile(full.str);
    std::size_t pos = 0;
    for (int lines = 0; lines < 6; ++lines) {  // header + 5 outcomes
      pos = content.find('\n', pos) + 1;
    }
    writeWholeFile(resumed.str, content.substr(0, pos) + "{\"index\": 17, ");
  }
  {
    campaign::CampaignJournal journal(resumed.str);
    campaign::ParallelOptions popt;
    popt.journal = &journal;
    popt.resume = true;
    (void)runMiniCampaign(1, popt);
  }

  const auto reportFull =
      analytics::buildReport(analytics::loadInputs({full.str}));
  const auto reportResumed =
      analytics::buildReport(analytics::loadInputs({resumed.str}));
  EXPECT_EQ(analytics::toJson(reportFull).dump(2),
            analytics::toJson(reportResumed).dump(2));
}

// ------------------------------------------------------------ golden file ---

TEST(Analytics, ReportMatchesGoldenFileByteForByte) {
  // Pins the exact fades.report/1 text for a fixed record set: key order,
  // integer formatting, table sorting. To regenerate after an intentional
  // schema change:
  //   FADES_REGEN_GOLDEN=1 ./tests/test_analytics
  //       --gtest_filter='Analytics.ReportMatchesGolden*'
  const auto report = analytics::buildReport(fixedInputs());
  const std::string text = analytics::toJson(report).dump(2) + "\n";

  const std::string goldenPath =
      std::string(FADES_TEST_DATA_DIR) + "/golden_report.json";
  if (std::getenv("FADES_REGEN_GOLDEN") != nullptr) {
    writeWholeFile(goldenPath, text);
    GTEST_SKIP() << "regenerated " << goldenPath;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str());
}

// ------------------------------------------------- Bubblesort acceptance ----

TEST(Analytics, BubblesortCampaignRanksComponentsWithPcAttribution) {
  // The paper's system under test: MC8051 running Bubblesort. A bit-flip
  // campaign over all flip-flops must attribute experiments to at least
  // four distinct functional units with differing failure fractions, and
  // every experiment must carry golden-run PC attribution.
  const auto workload = mc8051::bubblesort(6);
  const auto nl = mc8051::buildCore(workload.bytes);
  const auto impl = synth::implement(nl, fpga::DeviceSpec::virtex1000Like());

  core::FadesOptions options;
  options.keepRecords = true;
  {
    mc8051::Iss iss(workload.bytes);
    const auto samples = iss.tracePcPerCycle(workload.cycles);
    auto trace = std::make_shared<campaign::InstructionTrace>();
    for (const auto& s : samples) {
      trace->push_back(campaign::InstructionSample{s.pc, s.opcode});
    }
    options.instructionTrace = std::move(trace);
  }

  // One campaign over the core's flip-flops (registers / FSM / memory
  // controller) and one over the RAM bits, folded into a single report the
  // way fades_report folds an artifact directory.
  fpga::Device device(impl.spec);
  core::FadesTool tool(device, impl, workload.cycles, options);
  CampaignSpec spec;
  spec.model = FaultModel::BitFlip;
  spec.targets = TargetClass::SequentialFF;
  spec.unit = static_cast<int>(Unit::None);
  spec.band = DurationBand::shortBand();
  spec.experiments = 48;
  spec.seed = 2006;
  const auto ffResult = campaign::runCampaign(spec, {&tool});
  spec.targets = TargetClass::MemoryBlockBit;
  spec.experiments = 16;
  const auto ramResult = campaign::runCampaign(spec, {&tool});

  std::vector<CampaignInput> inputs(2);
  inputs[0].schema = "fades.run/1";
  inputs[0].records = ffResult.records;
  inputs[1].schema = "fades.run/1";
  inputs[1].records = ramResult.records;
  const auto report = analytics::buildReport(inputs);
  ASSERT_EQ(report.totals.experiments, 64u);

  // Acceptance: >= 4 distinct components, not all with the same failure
  // fraction.
  EXPECT_GE(report.components.size(), 4u);
  std::set<unsigned> fractions;
  for (const auto& c : report.components) {
    fractions.insert(c.slice.failureBp);
  }
  EXPECT_GE(fractions.size(), 2u);

  // Every mc8051 experiment has PC attribution (the trace covers the whole
  // workload), in particular every non-silent one.
  for (const auto& input : inputs) {
    for (const auto& rec : input.records) {
      EXPECT_GE(rec.pc, 0) << rec.targetName;
      EXPECT_GE(rec.opcode, 0) << rec.targetName;
      // A failure was observed diverging at or after its injection.
      if (rec.outcome == Outcome::Failure) {
        EXPECT_GE(rec.detectCycle,
                  static_cast<std::int64_t>(rec.injectCycle));
      }
    }
  }
  EXPECT_EQ(report.traced, 64u);
}

}  // namespace
}  // namespace fades
