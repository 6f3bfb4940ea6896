// Replays the committed differential-oracle seed corpus.
//
// Every case file under corpus/diffcheck/ is loaded and driven through the
// full four-way oracle (FADES vs VFIT vs autonomous vs golden ISS); any rule
// violation fails the test. This is the deterministic regression net for
// the differential subsystem: a change to the fault injectors, the cost
// model, the stream derivation or the MC8051 core that breaks cross-tool
// agreement surfaces here, on a fixed and reviewable set of cases.
//
// FADES_CORPUS_DIR is injected by CMake and points at the source tree.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "diffcheck/case_spec.hpp"
#include "diffcheck/corpus.hpp"
#include "diffcheck/oracle.hpp"

namespace fades::diffcheck {
namespace {

const std::vector<std::string>& corpusFiles() {
  static const std::vector<std::string> files =
      listCorpusFiles(FADES_CORPUS_DIR);
  return files;
}

TEST(DiffcheckCorpus, IsPresentAndCoversTheFaultMatrix) {
  const auto& files = corpusFiles();
  ASSERT_GE(files.size(), 20u);
  std::set<std::pair<int, int>> combos;
  std::set<std::string> names;
  for (const auto& path : files) {
    const CaseSpec c = loadCase(path);
    combos.insert({static_cast<int>(c.inject.model),
                   static_cast<int>(c.inject.targets)});
    EXPECT_TRUE(names.insert(c.name).second)
        << "duplicate case name " << c.name << " in " << path;
  }
  EXPECT_EQ(combos.size(), 8u)
      << "corpus no longer covers all fault-model x target-class pairs";
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, OracleAgrees) {
  const CaseSpec c = loadCase(GetParam());
  const CaseReport report = checkCase(c);
  EXPECT_GT(report.experiments, 0u) << c.describe();
  for (const auto& v : report.violations) {
    ADD_FAILURE() << c.name << ": " << v.rule << ": " << v.detail;
  }
}

std::string caseNameFromPath(const std::string& path) {
  std::string stem = path.substr(path.find_last_of('/') + 1);
  stem = stem.substr(0, stem.rfind(".json"));
  for (char& ch : stem) {
    if (ch == '-' || ch == '.') ch = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(All, CorpusReplay,
                         ::testing::ValuesIn(corpusFiles()),
                         [](const auto& info) {
                           return caseNameFromPath(info.param);
                         });

}  // namespace
}  // namespace fades::diffcheck
