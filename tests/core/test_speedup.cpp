#include "core/speedup.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace occm::model {
namespace {

ContentionModel fitLinearContention(double perCoreGrowth, int k = 4,
                                    int processors = 1) {
  // C(n) = 1000 * (1 + perCoreGrowth * (n - 1)) approximately, via two
  // points (exact on eq. 6 only for the right pairs; good enough here).
  MachineShape shape;
  shape.coresPerProcessor = k;
  shape.processors = processors;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  std::vector<MeasuredPoint> points = {
      {1, 1000.0}, {k, 1000.0 * (1.0 + perCoreGrowth * (k - 1))}};
  if (processors > 1) {
    points.push_back(
        {k + 1, 1000.0 * (1.0 + perCoreGrowth * k)});
  }
  return ContentionModel::tryFit(shape, points).value();
}

TEST(Speedup, NoContentionIsLinear) {
  const ContentionModel m = fitLinearContention(0.0);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_NEAR(predictSpeedup(m, n), static_cast<double>(n), 1e-6);
    EXPECT_NEAR(predictEfficiency(m, n), 1.0, 1e-6);
  }
}

TEST(Speedup, ContentionCurbsSpeedup) {
  const ContentionModel m = fitLinearContention(0.5);
  EXPECT_LT(predictSpeedup(m, 4), 4.0);
  EXPECT_GT(predictSpeedup(m, 4), 1.0);
  EXPECT_LT(predictEfficiency(m, 4), predictEfficiency(m, 2));
}

TEST(Speedup, SpeedupEqualsNOverOnePlusOmega) {
  const ContentionModel m = fitLinearContention(0.3);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_NEAR(predictSpeedup(m, n),
                n / (1.0 + m.predictOmega(n)), 1e-9);
  }
}

TEST(AdviseCores, PicksThePeak) {
  // Strong contention: speedup peaks before the machine is full.
  MachineShape shape;
  shape.coresPerProcessor = 8;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  // Saturating queue: C(n) = 1e6 / (0.01 - 0.001 n) -> saturation at 10.
  std::vector<MeasuredPoint> points;
  for (int n : {1, 4, 8}) {
    points.push_back({n, 1e6 / (0.01 - 0.001 * n)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, points).value();
  const SpeedupAdvice advice = adviseCores(m, 0.5);
  EXPECT_GE(advice.bestCores, 2);
  EXPECT_LE(advice.bestCores, 8);
  EXPECT_GT(advice.bestSpeedup, 1.0);
  EXPECT_LE(advice.efficientCores, advice.bestCores);
}

TEST(AdviseCores, ThresholdValidation) {
  const ContentionModel m = fitLinearContention(0.1);
  EXPECT_THROW((void)adviseCores(m, 0.0), ContractViolation);
  EXPECT_THROW((void)adviseCores(m, 1.5), ContractViolation);
  EXPECT_NO_THROW((void)adviseCores(m, 1.0));
}

TEST(MeasuredSpeedup, Definition) {
  // 1000 cycles on 1 core; 2000 total on 4 cores -> wall 500 -> 2x.
  EXPECT_NEAR(measuredSpeedup(1000.0, 2000.0, 4), 2.0, 1e-12);
  EXPECT_THROW((void)measuredSpeedup(0.0, 1.0, 1), ContractViolation);
  EXPECT_THROW((void)measuredSpeedup(1.0, 1.0, 0), ContractViolation);
}

}  // namespace
}  // namespace occm::model
