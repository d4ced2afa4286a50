// Tests of the benchmark's own code: percentile selection, the open-loop
// schedule and the replay accounting.

#include <gtest/gtest.h>

#include <vector>

#include "replay.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(oneTo(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(100), 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(10), 90.0), 9.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(1), 99.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samplesBeyond(1000, 99.0), 10U);
  EXPECT_DOUBLE_EQ(tailPercentileFor(19), 0.0);   // 9 beyond the median
  EXPECT_DOUBLE_EQ(tailPercentileFor(20), 50.0);  // 10 beyond the median
  EXPECT_DOUBLE_EQ(tailPercentileFor(99), 50.0);  // 9 beyond p90
  EXPECT_DOUBLE_EQ(tailPercentileFor(100), 90.0);
  EXPECT_DOUBLE_EQ(tailPercentileFor(999), 90.0);  // 9 beyond p99
  EXPECT_DOUBLE_EQ(tailPercentileFor(1000), 99.0);
  EXPECT_DOUBLE_EQ(tailPercentileFor(10000), 99.9);
}

TEST(Percentile, SummaryReportsTheSupportedTail) {
  const Summary s = summarize(oneTo(100));
  EXPECT_EQ(s.n, 100U);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.tailP, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_DOUBLE_EQ(summarize(oneTo(5)).tail, 0.0);
}

TEST(OpenLoopSchedule, SameSeedSameDueTimes) {
  ScheduleConfig config;
  config.seed = 42;
  config.ratePerS = 200.0;
  config.durationS = 5.0;
  config.tier0Keys = 6;
  config.tier1Keys = 3;
  const auto a = makeOpenLoopSchedule(config);
  const auto b = makeOpenLoopSchedule(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i + 1);
    EXPECT_EQ(a[i].dueS, b[i].dueS);
    EXPECT_EQ(a[i].tier1, b[i].tier1);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_LT(a[i].dueS, config.durationS);
    EXPECT_LT(a[i].key, a[i].tier1 ? 3U : 6U);
    if (i > 0) {
      EXPECT_GE(a[i].dueS, a[i - 1].dueS);
    }
  }
  config.seed = 43;
  const auto c = makeOpenLoopSchedule(config);
  EXPECT_TRUE(c.size() != a.size() || c.front().dueS != a.front().dueS);
}

TEST(OpenLoopSchedule, OfferedRateAndTierShare) {
  ScheduleConfig config;
  config.seed = 7;
  config.ratePerS = 500.0;
  config.durationS = 20.0;
  config.tier1Share = 0.1;
  const auto s = makeOpenLoopSchedule(config);
  const double expected = config.ratePerS * config.durationS;
  EXPECT_NEAR(static_cast<double>(s.size()), expected, 0.05 * expected);
  std::size_t tier1 = 0;
  for (const ScheduledRequest& r : s) {
    tier1 += r.tier1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(tier1) / static_cast<double>(s.size()),
              0.1, 0.02);
}

TEST(OpenLoopSchedule, LatencyCountsFromTheDueTime) {
  ScheduledRequest r;
  r.dueS = 1.0;
  // Sent 30 ms late and answered 5 ms after the send: 35 ms.
  EXPECT_NEAR(latencyFromDueMs(r, 1.035), 35.0, 1e-9);
}

TEST(ReplayAccounting, LayersPlusResidualEqualSimRun) {
  const LayerAccounting a =
      accountLayers(2.0, 10.0, 40.0, 50.0, 20'000'000, 4'000'000);
  EXPECT_DOUBLE_EQ(a.workloadsS, 0.2);
  EXPECT_DOUBLE_EQ(a.cacheS, 0.8);
  EXPECT_DOUBLE_EQ(a.memS, 0.2);
  EXPECT_NEAR(a.workloadsS + a.cacheS + a.memS + a.residualS, a.simRunS,
              1e-12);
  EXPECT_NEAR(a.residualPct(), 40.0, 1e-9);
}

TEST(ReplayAccounting, ResidualMayBeNegative) {
  const LayerAccounting a = accountLayers(1.0, 100.0, 0.0, 0.0, 20'000'000, 0);
  EXPECT_NEAR(a.residualS, -1.0, 1e-12);
  EXPECT_NEAR(a.workloadsS + a.cacheS + a.memS + a.residualS, a.simRunS,
              1e-12);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"analysis.runSweep", 0, 100, 0, -1, 0};
  spans[1] = {"sim.run", 10, 70, 1, 0, 0};
  spans[2] = {"sim.run", 60, 90, 2, 0, 0};  // overlaps its sibling
  const auto self = layerSelfTimesNs(spans);
  EXPECT_EQ(self.at("analysis"), 20U);  // 100 - union [10, 90)
  EXPECT_EQ(self.at("sim"), 90U);
}

TEST(Spans, ChromeTraceNamesParentAndRequest) {
  SpanRecorder recorder(true);
  const std::int64_t root = recorder.add("loadgen.request", 0, 2'000, -1, 7);
  recorder.add("serve.decode", 500, 1'000, root, 7);
  const std::string json = recorder.chromeTrace();
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":7"), std::string::npos);
  SpanRecorder off(false);
  EXPECT_EQ(off.add("x.y", 0, 1), -1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
