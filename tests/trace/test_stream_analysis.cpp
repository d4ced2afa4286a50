#include "support/stream_analysis.hpp"

#include <gtest/gtest.h>

#include "trace/address_space.hpp"
#include "workloads/phase_stream.hpp"

namespace occm::trace {
namespace {

using workloads::Phase;
using workloads::PhaseStream;
using workloads::seqLines;

TEST(StreamAnalysis, CountsSequentialWalk) {
  PhaseStream stream({seqLines(0, 64 * 100, 5)});
  const StreamStats stats = analyzeStream(stream, 1'000'000);
  EXPECT_EQ(stats.refs, 100u);
  EXPECT_EQ(stats.distinctLines, 100u);
  EXPECT_EQ(stats.workingSetBytes, 6400u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.sharedFraction(), 1.0);  // address 0 is shared space
  // The dominant stride is +64.
  EXPECT_GT(stats.strides.at(64), 90u);
}

TEST(StreamAnalysis, WriteFractionTracked) {
  PhaseStream stream({seqLines(0, 64 * 10, 1, /*write=*/true)});
  const StreamStats stats = analyzeStream(stream, 100);
  EXPECT_EQ(stats.writeFraction(), 1.0);
}

TEST(StreamAnalysis, RespectsMaxRefs) {
  PhaseStream stream({seqLines(0, 64 * 1000, 1)});
  const StreamStats stats = analyzeStream(stream, 10);
  EXPECT_EQ(stats.refs, 10u);
}

TEST(StreamAnalysis, GatherTouchesTable) {
  Phase gather;
  gather.kind = Phase::Kind::kGather;
  gather.base = 0;
  gather.tableBytes = 64 * 64;
  gather.elementBytes = 8;
  gather.count = 5000;
  gather.seed = 9;
  PhaseStream stream({gather});
  const StreamStats stats = analyzeStream(stream, 1'000'000);
  EXPECT_EQ(stats.refs, 5000u);
  // Nearly every line of a 64-line table is hit by 5000 uniform draws.
  EXPECT_GE(stats.distinctLines, 60u);
  EXPECT_LE(stats.distinctLines, 64u);
}

TEST(StreamAnalysis, WorkPerRefAveragesJitter) {
  PhaseStream stream({seqLines(0, 64 * 2000, 100)});
  const StreamStats stats = analyzeStream(stream, 1'000'000);
  // +/-25 % deterministic jitter keeps the mean near the nominal value.
  EXPECT_NEAR(stats.workPerRef(), 100.0, 5.0);
}

TEST(StreamAnalysis, PrivateAddressesNotShared) {
  PhaseStream stream({seqLines(AddressSpace::kPrivateBase, 64 * 10, 1)});
  const StreamStats stats = analyzeStream(stream, 100);
  EXPECT_EQ(stats.sharedFraction(), 0.0);
}

}  // namespace
}  // namespace occm::trace
