#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "campaign/report.hpp"

namespace fades::campaign {
namespace {

TEST(Report, RenderCsvQuotesEveryFieldThroughOneImplementation) {
  const auto csv = renderCsv({"a", "b,c"}, {{"plain", "has \"q\""}});
  EXPECT_EQ(csv, "a,\"b,c\"\nplain,\"has \"\"q\"\"\"\n");
}

TEST(Report, RenderMarkdownTablePipes) {
  const auto md = renderMarkdownTable({"x", "y"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(md, "| x | y |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
}

TEST(Report, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fades_report.md";
  writeTextFile(path, "hello report\n");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const auto n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "hello report\n");
}

}  // namespace
}  // namespace fades::campaign
