#include "obs/time_series.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"
#include "obs/metric_registry.hpp"

namespace occm::obs {
namespace {

TEST(TimeSeries, CounterBinsByWindow) {
  TimeSeries series(100, MetricKind::kCounter);
  series.record(0);
  series.record(99);
  series.record(100);
  series.record(250, 5.0);
  ASSERT_EQ(series.windowCount(), 3u);
  EXPECT_DOUBLE_EQ(series.value(0), 2.0);
  EXPECT_DOUBLE_EQ(series.value(1), 1.0);
  EXPECT_DOUBLE_EQ(series.value(2), 5.0);
  EXPECT_EQ(series.samples(2), 1u);  // one record() call of weight 5
  EXPECT_DOUBLE_EQ(series.total(), 8.0);
}

TEST(TimeSeries, WindowBoundaryIsHalfOpen) {
  TimeSeries series(100);
  series.record(199);
  series.record(200);
  ASSERT_EQ(series.windowCount(), 3u);
  EXPECT_DOUBLE_EQ(series.value(1), 1.0);
  EXPECT_DOUBLE_EQ(series.value(2), 1.0);
  EXPECT_EQ(series.windowStart(2), 200u);
}

TEST(TimeSeries, FinalizePadsTrailingWindows) {
  TimeSeries series(100);
  series.record(50);
  series.finalize(1000);
  EXPECT_EQ(series.windowCount(), 10u);
  EXPECT_DOUBLE_EQ(series.value(9), 0.0);
  EXPECT_EQ(series.samples(9), 0u);
}

TEST(TimeSeries, FinalizeNeverShrinks) {
  TimeSeries series(100);
  series.record(950);
  series.finalize(100);
  EXPECT_EQ(series.windowCount(), 10u);
}

TEST(TimeSeries, FinalizeRoundsPartialWindowUp) {
  TimeSeries series(100);
  series.finalize(101);
  EXPECT_EQ(series.windowCount(), 2u);
  series.finalize(200);
  EXPECT_EQ(series.windowCount(), 2u);
}

TEST(TimeSeries, FinalizeZeroEndIsEmpty) {
  TimeSeries series(100);
  series.finalize(0);
  EXPECT_TRUE(series.empty());
}

TEST(TimeSeries, GaugeAveragesWithinWindow) {
  TimeSeries series(100, MetricKind::kGauge);
  series.record(10, 4.0);
  series.record(20, 8.0);
  EXPECT_DOUBLE_EQ(series.value(0), 6.0);
}

TEST(TimeSeries, GaugeCarriesForwardOverEmptyWindows) {
  TimeSeries series(100, MetricKind::kGauge);
  series.record(0, 3.0);
  series.record(350, 9.0);
  series.finalize(600);
  const std::vector<double> values = series.values();
  ASSERT_EQ(values.size(), 6u);
  EXPECT_DOUBLE_EQ(values[0], 3.0);
  EXPECT_DOUBLE_EQ(values[1], 3.0);  // carried forward
  EXPECT_DOUBLE_EQ(values[2], 3.0);
  EXPECT_DOUBLE_EQ(values[3], 9.0);
  EXPECT_DOUBLE_EQ(values[4], 9.0);
  EXPECT_DOUBLE_EQ(values[5], 9.0);
  EXPECT_DOUBLE_EQ(series.value(4), 9.0);  // point query agrees
}

TEST(TimeSeries, GaugeBeforeFirstSampleIsZero) {
  TimeSeries series(100, MetricKind::kGauge);
  series.record(250, 7.0);
  EXPECT_DOUBLE_EQ(series.value(0), 0.0);
  EXPECT_DOUBLE_EQ(series.value(1), 0.0);
  EXPECT_DOUBLE_EQ(series.value(2), 7.0);
}

TEST(TimeSeries, CounterValuesMatchPointQueries) {
  TimeSeries series(50);
  series.record(0, 2.0);
  series.record(120, 3.0);
  series.finalize(200);
  const std::vector<double> values = series.values();
  ASSERT_EQ(values.size(), 4u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(values[i], series.value(i));
  }
}

TEST(TimeSeries, WindowCountsSurviveUint32Overflow) {
  // Regression: the LLC-miss sampler once kept uint32 window counts that
  // silently wrapped past 2^32 lines. The simulator turns these counter
  // sums into RunProfile::missWindows, so they must stay exact as uint64.
  TimeSeries series(100);
  series.record(10, 5'000'000'000.0);
  series.record(20, 5'000'000'000.0);
  ASSERT_EQ(series.windowCount(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(series.sum(0)), 10'000'000'000ULL);
}

TEST(TimeSeries, ZeroWindowRejected) {
  EXPECT_THROW((void)TimeSeries(0), ContractViolation);
}

TEST(TimeSeries, OutOfRangeQueriesRejected) {
  TimeSeries series(100);
  series.record(0);
  EXPECT_THROW((void)series.value(1), ContractViolation);
  EXPECT_THROW((void)series.sum(1), ContractViolation);
  EXPECT_THROW((void)series.samples(1), ContractViolation);
}

TEST(MetricRegistry, RegistersAndFindsByName) {
  MetricRegistry registry(100);
  TimeSeries& requests = registry.counter("mem.node0.requests", "1/window");
  requests.record(10);
  EXPECT_EQ(registry.size(), 1u);
  const TimeSeries* found = registry.find("mem.node0.requests");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value(0), 1.0);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(MetricRegistry, ReopenReturnsSameSeries) {
  MetricRegistry registry(100);
  TimeSeries& a = registry.counter("x");
  TimeSeries& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricRegistry, ReopenWithDifferentKindRejected) {
  MetricRegistry registry(100);
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), ContractViolation);
}

TEST(MetricRegistry, ReferencesStayValidAcrossGrowth) {
  MetricRegistry registry(100);
  TimeSeries& first = registry.counter("first");
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("metric" + std::to_string(i));
  }
  first.record(0, 42.0);
  EXPECT_DOUBLE_EQ(registry.find("first")->value(0), 42.0);
}

TEST(MetricRegistry, FinalizeAlignsAllSeries) {
  MetricRegistry registry(100);
  TimeSeries& a = registry.counter("a");
  TimeSeries& b = registry.gauge("b");
  a.record(50);
  registry.finalize(1000);
  EXPECT_EQ(a.windowCount(), 10u);
  EXPECT_EQ(b.windowCount(), 10u);
}

TEST(MetricRegistry, EmptyNameRejected) {
  MetricRegistry registry(100);
  EXPECT_THROW((void)registry.counter(""), ContractViolation);
}

}  // namespace
}  // namespace occm::obs
