#include "stats/regression.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace occm::stats {
namespace {

TEST(FitLinear, RecoversExactLine) {
  std::vector<Point> pts;
  for (int x = 0; x < 10; ++x) {
    pts.push_back({static_cast<double>(x), 3.0 + 2.0 * x});
  }
  const LinearFit fit = fitLinear(pts);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 10u);
}

TEST(FitLinear, PredictInterpolates) {
  const std::vector<Point> pts = {{0.0, 1.0}, {2.0, 5.0}};
  const LinearFit fit = fitLinear(pts);
  EXPECT_NEAR(fit.predict(1.0), 3.0, 1e-12);
}

TEST(FitLinear, TwoPointsExact) {
  const std::vector<Point> pts = {{1.0, 10.0}, {3.0, 4.0}};
  const LinearFit fit = fitLinear(pts);
  EXPECT_NEAR(fit.slope, -3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 13.0, 1e-12);
}

TEST(FitLinear, NoisyDataHasR2BelowOne) {
  Rng rng(5);
  std::vector<Point> pts;
  for (int x = 0; x < 100; ++x) {
    pts.push_back({static_cast<double>(x),
                   2.0 * x + rng.uniform(-20.0, 20.0)});
  }
  const LinearFit fit = fitLinear(pts);
  EXPECT_NEAR(fit.slope, 2.0, 0.2);
  EXPECT_LT(fit.r2, 1.0);
  EXPECT_GT(fit.r2, 0.8);
}

TEST(FitLinear, TooFewPointsThrows) {
  const std::vector<Point> pts = {{1.0, 1.0}};
  EXPECT_THROW((void)fitLinear(pts), ContractViolation);
}

TEST(FitLinear, DegenerateXThrows) {
  const std::vector<Point> pts = {{1.0, 1.0}, {1.0, 2.0}};
  EXPECT_THROW((void)fitLinear(pts), ContractViolation);
}

}  // namespace
}  // namespace occm::stats
