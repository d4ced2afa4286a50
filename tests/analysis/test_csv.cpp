#include "analysis/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

TEST(CsvRow, JoinsAndEscapes) {
  EXPECT_EQ(csvRow({"a", "b", "c"}), "a,b,c\n");
  EXPECT_EQ(csvRow({"a,b", "c"}), "\"a,b\",c\n");
  EXPECT_EQ(csvRow({"say \"hi\""}), "\"say \"\"hi\"\"\"\n");
}

SweepResult tinySweep() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  config.coreCounts = {1, 2};
  return runSweep(config);
}

TEST(SweepToCsv, HasHeaderAndOneRowPerRun) {
  const std::string csv = sweepToCsv(tinySweep());
  std::size_t lines = 0;
  for (char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 runs
  EXPECT_EQ(csv.rfind("cores,total_cycles", 0), 0u);
  EXPECT_NE(csv.find("\n1,"), std::string::npos);
  EXPECT_NE(csv.find("\n2,"), std::string::npos);
}

TEST(SweepToCsv, OmegaZeroAtOneCore) {
  const std::string csv = sweepToCsv(tinySweep());
  // The 1-core row ends in omega = 0.
  const auto rowStart = csv.find("\n1,");
  const auto rowEnd = csv.find('\n', rowStart + 1);
  const std::string row = csv.substr(rowStart + 1, rowEnd - rowStart - 1);
  EXPECT_EQ(row.substr(row.rfind(',') + 1), "0");
}

TEST(SweepToCsv, WithoutOneCoreRunNormalizesToFirst) {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  config.coreCounts = {2, 4};
  const std::string csv = sweepToCsv(runSweep(config));
  const auto rowStart = csv.find("\n2,");
  ASSERT_NE(rowStart, std::string::npos);
  const auto rowEnd = csv.find('\n', rowStart + 1);
  const std::string row = csv.substr(rowStart + 1, rowEnd - rowStart - 1);
  EXPECT_EQ(row.substr(row.rfind(',') + 1), "0");
}

TEST(WriteFile, RoundTrips) {
  const std::string path = "/tmp/occm_csv_test.csv";
  writeFile(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(WriteFile, BadPathThrows) {
  EXPECT_THROW(writeFile("/nonexistent-dir/x.csv", "a"), ContractViolation);
}

}  // namespace
}  // namespace occm::analysis
