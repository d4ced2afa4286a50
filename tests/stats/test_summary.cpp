#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace occm::stats {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(OnlineStats, MatchesNaiveComputation) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  OnlineStats s;
  for (double v : values) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, NegativeValuesTracked) {
  OnlineStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.cv(), 0.0);  // zero mean -> defined as 0
}

TEST(MeanRelativeError, Basic) {
  const std::vector<double> measured = {100.0, 200.0};
  const std::vector<double> predicted = {110.0, 180.0};
  // (0.1 + 0.1) / 2 = 0.1
  EXPECT_NEAR(meanRelativeError(measured, predicted), 0.1, 1e-12);
}

TEST(MeanRelativeError, SkipsZeroMeasured) {
  const std::vector<double> measured = {0.0, 100.0};
  const std::vector<double> predicted = {5.0, 150.0};
  EXPECT_NEAR(meanRelativeError(measured, predicted), 0.5, 1e-12);
}

TEST(MeanRelativeError, SizeMismatchThrows) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)meanRelativeError(a, b), ContractViolation);
}

TEST(MeanRelativeError, PerfectPredictionIsZero) {
  const std::vector<double> v = {3.0, 4.0, 5.0};
  EXPECT_EQ(meanRelativeError(v, v), 0.0);
}

}  // namespace
}  // namespace occm::stats
