#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diffcheck/case_spec.hpp"
#include "diffcheck/corpus.hpp"
#include "diffcheck/gen.hpp"
#include "diffcheck/shrink.hpp"
#include "mc8051/assembler.hpp"

namespace fades::diffcheck {
namespace {

using common::FadesError;

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// ------------------------------------------------------------ case spec -----

CaseSpec sampleRtlCase() {
  CaseSpec c;
  c.name = "sample-rtl";
  c.kind = DesignKind::Rtl;
  c.rtl = {5, 3, 4, 24, true, 4};
  c.runCycles = 48;
  c.inject.model = campaign::FaultModel::BitFlip;
  c.inject.targets = campaign::TargetClass::SequentialFF;
  c.inject.experiments = 5;
  c.inject.seed = 9;
  c.inject.band = campaign::DurationBand::shortBand();
  return c;
}

TEST(CaseSpecJson, RoundTripRtl) {
  const CaseSpec c = sampleRtlCase();
  const CaseSpec back = CaseSpec::fromJson(c.toJson());
  EXPECT_EQ(c.toJson().dump(), back.toJson().dump());
}

TEST(CaseSpecJson, RoundTripMc8051) {
  CaseSpec c;
  c.name = "sample-mc";
  c.kind = DesignKind::Mc8051;
  c.program = {"MOV A, #1", "; a comment", "idle: SJMP idle"};
  c.runCycles = 40;
  c.inject.model = campaign::FaultModel::Pulse;
  c.inject.targets = campaign::TargetClass::CombinationalLut;
  c.inject.experiments = 2;
  const CaseSpec back = CaseSpec::fromJson(c.toJson());
  EXPECT_EQ(c.toJson().dump(), back.toJson().dump());
  EXPECT_EQ(back.program, c.program);
}

TEST(CaseSpecJson, RejectsWrongSchema) {
  obs::Json j = sampleRtlCase().toJson();
  j.set("schema", obs::Json("bogus/9"));
  EXPECT_THROW(CaseSpec::fromJson(j), FadesError);
}

TEST(CaseSpecJson, RejectsUnknownEnumNames) {
  for (const auto& [field, bad] :
       {std::pair<const char*, const char*>{"model", "gamma-ray"},
        {"targets", "everything"}}) {
    obs::Json j = sampleRtlCase().toJson();
    obs::Json inject = *j.find("inject");
    inject.set(field, obs::Json(std::string(bad)));
    j.set("inject", inject);
    try {
      CaseSpec::fromJson(j);
      FAIL() << "accepted " << field << " '" << bad << "'";
    } catch (const FadesError& e) {
      EXPECT_EQ(e.kind(), common::ErrorKind::InvalidArgument) << e.what();
    }
  }
  EXPECT_THROW(designKindFromString("analog"), FadesError);
}

TEST(CaseSpec, InstructionCountSkipsLabelsAndComments) {
  CaseSpec c;
  c.kind = DesignKind::Mc8051;
  c.program = {"MOV A, #1", "; pure comment", "lbl:", "lbl2: ADD A, #2",
               "idle: SJMP idle"};
  EXPECT_EQ(c.instructionCount(), 3u);
  EXPECT_EQ(sampleRtlCase().instructionCount(), 0u);
}

// ------------------------------------------------------------ generator -----

TEST(Gen, GenerateCaseIsDeterministic) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    EXPECT_EQ(generateCase(seed).toJson().dump(),
              generateCase(seed).toJson().dump());
  }
  EXPECT_NE(generateCase(1).toJson().dump(), generateCase(2).toJson().dump());
}

TEST(Gen, GeneratedDesignsBuild) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CaseSpec c = generateCase(seed);
    const auto nl = buildDesign(c);
    EXPECT_GT(nl.flopCount(), 0u) << c.describe();
    for (const auto& port : observedOutputs(c)) {
      EXPECT_NE(nl.findOutput(port), nullptr) << c.name << " port " << port;
    }
  }
}

TEST(Gen, SeedCorpusCoversTheFaultMatrix) {
  const auto corpus = seedCorpus();
  EXPECT_EQ(corpus.size(), 20u);
  std::set<std::pair<int, int>> combos;
  bool sawRtl = false, sawMc = false;
  std::set<std::string> names;
  for (const auto& c : corpus) {
    combos.insert({static_cast<int>(c.inject.model),
                   static_cast<int>(c.inject.targets)});
    sawRtl = sawRtl || c.kind == DesignKind::Rtl;
    sawMc = sawMc || c.kind == DesignKind::Mc8051;
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
  }
  // Two target classes for each of the four fault models (Table 1).
  EXPECT_EQ(combos.size(), 8u);
  EXPECT_TRUE(sawRtl);
  EXPECT_TRUE(sawMc);
}

TEST(Gen, GeneratedProgramsSurviveLineRemoval) {
  // The shrinker removes arbitrary body lines; generated programs must stay
  // assemblable under any such removal (straight-line code, no cross-line
  // label references except the final self-loop).
  common::Rng rng(42);
  const auto prog = generateProgram(rng, 12);
  ASSERT_GE(prog.size(), 3u);
  EXPECT_NO_THROW(mc8051::assemble(joinLines(prog)));
  for (std::size_t i = 0; i + 1 < prog.size(); ++i) {
    auto reduced = prog;
    reduced.erase(reduced.begin() + static_cast<long>(i));
    EXPECT_NO_THROW(mc8051::assemble(joinLines(reduced))) << "line " << i;
  }
}

// -------------------------------------------------------------- shrinker ----

Violation plantViolation() { return {"plant", "synthetic"}; }

/// Synthetic oracle with a planted minimal failure: the violation fires iff
/// the circuit still has >= 3 gates and the workload >= 10 cycles.
std::vector<Violation> plantedRtlOracle(const CaseSpec& s) {
  if (s.kind == DesignKind::Rtl && s.rtl.gates >= 3 && s.runCycles >= 10) {
    return {plantViolation()};
  }
  return {};
}

TEST(Shrink, ReducesToThePlantedMinimum) {
  const CaseSpec start = sampleRtlCase();
  ASSERT_FALSE(plantedRtlOracle(start).empty());
  const ShrinkResult r =
      shrinkCase(start, plantViolation(), plantedRtlOracle, {1, 500});
  EXPECT_FALSE(r.budgetExhausted);
  // Exactly the planted minimum: every parameter not needed to reproduce is
  // at its floor, and the two that are needed sit on their thresholds.
  EXPECT_EQ(r.minimal.rtl.gates, 3u);
  EXPECT_EQ(r.minimal.runCycles, 10u);
  EXPECT_EQ(r.minimal.rtl.regs, 1u);
  EXPECT_EQ(r.minimal.rtl.regWidth, 1u);
  EXPECT_EQ(r.minimal.rtl.namedSignals, 1u);
  EXPECT_FALSE(r.minimal.rtl.withRam);
  EXPECT_EQ(r.minimal.inject.experiments, 1u);
  EXPECT_EQ(r.violation.rule, "plant");
}

TEST(Shrink, TrajectoryIsIdenticalAtAnyJobCount) {
  const CaseSpec start = sampleRtlCase();
  ShrinkResult base;
  for (unsigned jobs : {1u, 3u, 8u}) {
    const ShrinkResult r =
        shrinkCase(start, plantViolation(), plantedRtlOracle, {jobs, 500});
    if (jobs == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.minimal.toJson().dump(), base.minimal.toJson().dump())
        << "jobs=" << jobs;
    EXPECT_EQ(r.evaluated, base.evaluated) << "jobs=" << jobs;
    EXPECT_EQ(r.accepted, base.accepted) << "jobs=" << jobs;
    EXPECT_EQ(r.budgetExhausted, base.budgetExhausted) << "jobs=" << jobs;
  }
}

TEST(Shrink, ChargesOnlyTheSequentialScanAtJobsOne) {
  std::atomic<unsigned> calls{0};
  const auto counting = [&](const CaseSpec& s) {
    ++calls;
    return plantedRtlOracle(s);
  };
  const ShrinkResult r =
      shrinkCase(sampleRtlCase(), plantViolation(), counting, {1, 500});
  EXPECT_EQ(calls.load(), r.evaluated);
}

TEST(Shrink, ProgramShrinksToThePlantedInstruction) {
  CaseSpec c;
  c.name = "planted-mc";
  c.kind = DesignKind::Mc8051;
  common::Rng rng(7);
  c.program = generateProgram(rng, 14);
  // Plant the failure on an instruction the generator always leaves room
  // for: insert MUL AB in the middle of the body.
  c.program.insert(c.program.begin() + static_cast<long>(c.program.size() / 2),
                   "        MUL  AB");
  c.runCycles = 64;
  const auto oracle = [](const CaseSpec& s) -> std::vector<Violation> {
    for (const auto& line : s.program) {
      if (line.find("MUL") != std::string::npos) return {plantViolation()};
    }
    return {};
  };
  const ShrinkResult r = shrinkCase(c, plantViolation(), oracle, {4, 500});
  EXPECT_FALSE(r.budgetExhausted);
  ASSERT_EQ(r.minimal.program.size(), 2u);
  EXPECT_NE(r.minimal.program[0].find("MUL"), std::string::npos);
  EXPECT_EQ(r.minimal.program.back(), c.program.back());
  // The acceptance bar: reproducers stay within 8 instructions.
  EXPECT_LE(r.minimal.instructionCount(), 8u);
}

TEST(Shrink, BudgetBoundsOracleCalls) {
  std::atomic<unsigned> calls{0};
  const auto counting = [&](const CaseSpec& s) {
    ++calls;
    return plantedRtlOracle(s);
  };
  const ShrinkResult r =
      shrinkCase(sampleRtlCase(), plantViolation(), counting, {1, 3});
  EXPECT_TRUE(r.budgetExhausted);
  EXPECT_LE(r.evaluated, 3u);
  // Best-so-far must still reproduce the rule.
  EXPECT_FALSE(plantedRtlOracle(r.minimal).empty());
}

TEST(Shrink, OracleExceptionMeansNotReproducing) {
  const auto throwing = [](const CaseSpec& s) -> std::vector<Violation> {
    if (s.rtl.gates < 24) throw FadesError(common::ErrorKind::InvalidArgument,
                                           "unbuildable");
    return {plantViolation()};
  };
  const ShrinkResult r =
      shrinkCase(sampleRtlCase(), plantViolation(), throwing, {2, 200});
  // Gate reductions all throw, so gates stay put; the other axes shrink.
  EXPECT_EQ(r.minimal.rtl.gates, 24u);
  EXPECT_EQ(r.minimal.inject.experiments, 1u);
}

TEST(Shrink, CandidateOrderHalvesFirst) {
  const auto cands = shrinkCandidates(sampleRtlCase());
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].rtl.gates, 12u);  // big step first (ddmin ordering)
  EXPECT_EQ(cands[1].rtl.gates, 23u);
}

// ---------------------------------------------------------------- corpus ----

TEST(Corpus, SaveLoadListRoundTrip) {
  const std::string dir = ::testing::TempDir() + "diffcheck-corpus-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const CaseSpec a = generateCase(3);
  const CaseSpec b = generateCase(4);
  saveCase(b, dir + "/b.json");
  saveCase(a, dir + "/a.json");

  const auto files = listCorpusFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_LT(files[0], files[1]);  // sorted for deterministic replay order

  EXPECT_EQ(loadCase(dir + "/a.json").toJson().dump(), a.toJson().dump());
  EXPECT_EQ(loadCase(dir + "/b.json").toJson().dump(), b.toJson().dump());
  std::filesystem::remove_all(dir);
}

TEST(Corpus, MissingDirectoryAndBadFilesThrow) {
  EXPECT_THROW(listCorpusFiles(::testing::TempDir() + "no-such-dir-xyz"),
               FadesError);
  const std::string dir = ::testing::TempDir() + "diffcheck-bad-corpus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/bad.json");
    out << "{ not json";
  }
  EXPECT_THROW(loadCase(dir + "/bad.json"), FadesError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fades::diffcheck
