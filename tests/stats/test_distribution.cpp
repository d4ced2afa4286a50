#include "stats/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace occm::stats {
namespace {

TEST(EmpiricalCcdf, SmallExample) {
  const std::vector<double> samples = {1.0, 1.0, 2.0, 4.0};
  const auto ccdf = empiricalCcdf(samples);
  ASSERT_EQ(ccdf.size(), 3u);
  EXPECT_DOUBLE_EQ(ccdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(ccdf[0].probability, 0.5);  // 2 of 4 above 1
  EXPECT_DOUBLE_EQ(ccdf[1].x, 2.0);
  EXPECT_DOUBLE_EQ(ccdf[1].probability, 0.25);
  EXPECT_DOUBLE_EQ(ccdf[2].x, 4.0);
  EXPECT_DOUBLE_EQ(ccdf[2].probability, 0.0);  // maximum
}

TEST(EmpiricalCcdf, MonotoneNonIncreasing) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(rng.uniform(0.0, 50.0));
  }
  const auto ccdf = empiricalCcdf(samples);
  for (std::size_t i = 1; i < ccdf.size(); ++i) {
    ASSERT_LT(ccdf[i - 1].x, ccdf[i].x);
    ASSERT_GE(ccdf[i - 1].probability, ccdf[i].probability);
  }
}

TEST(EmpiricalCcdf, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)empiricalCcdf(empty), ContractViolation);
}

TEST(CcdfAt, EvaluatesOnGrid) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> grid = {0.5, 2.0, 10.0};
  const auto ccdf = ccdfAt(samples, grid);
  ASSERT_EQ(ccdf.size(), 3u);
  EXPECT_DOUBLE_EQ(ccdf[0].probability, 1.0);   // all above 0.5
  EXPECT_DOUBLE_EQ(ccdf[1].probability, 0.5);   // 3 and 4 above 2
  EXPECT_DOUBLE_EQ(ccdf[2].probability, 0.0);
}

TEST(TailFit, ParetoTailIsDiagonal) {
  // CCDF of a Pareto(alpha) is x^-alpha: log-log slope -alpha, R^2 ~ 1.
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(rng.boundedPareto(1.5, 1.0, 1e6));
  }
  const auto ccdf = empiricalCcdf(samples);
  const TailFit fit = fitLogLogTail(ccdf, 2.0);
  ASSERT_GT(fit.points, 10u);
  EXPECT_NEAR(fit.slope, -1.5, 0.25);
  EXPECT_GT(fit.r2, 0.95);
}

TEST(TailFit, TruncatedDistributionHasSteepTail) {
  // A near-constant distribution (saturated traffic) has a tail that
  // collapses: very steep log-log slope compared to a Pareto.
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(95.0 + rng.uniform(0.0, 10.0));
  }
  const auto ccdf = empiricalCcdf(samples);
  const TailFit fit = fitLogLogTail(ccdf, 95.0);
  ASSERT_GT(fit.points, 3u);
  EXPECT_LT(fit.slope, -10.0);
}

TEST(TailFit, TooFewPointsReturnsEmpty) {
  const std::vector<CcdfPoint> ccdf = {{1.0, 0.5}, {2.0, 0.0}};
  const TailFit fit = fitLogLogTail(ccdf, 0.5);
  EXPECT_EQ(fit.points, 0u);
}

class HillEstimatorTest : public ::testing::TestWithParam<double> {};

TEST_P(HillEstimatorTest, RecoversParetoAlpha) {
  const double alpha = GetParam();
  Rng rng(static_cast<std::uint64_t>(alpha * 1000));
  std::vector<double> samples;
  for (int i = 0; i < 200000; ++i) {
    samples.push_back(rng.boundedPareto(alpha, 1.0, 1e9));
  }
  const double estimate = hillTailIndex(samples, 5000);
  EXPECT_NEAR(estimate, alpha, 0.15 * alpha);
}

INSTANTIATE_TEST_SUITE_P(Alphas, HillEstimatorTest,
                         ::testing::Values(0.8, 1.2, 1.8, 2.5));

TEST(HillEstimator, DegenerateInputsReturnZero) {
  const std::vector<double> one = {1.0};
  EXPECT_EQ(hillTailIndex(one, 2), 0.0);
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_EQ(hillTailIndex(two, 5), 0.0);
}

}  // namespace
}  // namespace occm::stats
