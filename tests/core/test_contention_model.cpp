// Tests of the paper's analytical model (section IV).

#include "core/contention_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "topology/presets.hpp"

namespace occm::model {
namespace {

/// Synthetic single-processor machine following eq. 6 exactly:
/// C(n) = r / (mu - n L).
double eq6(double r, double mu, double L, double n) {
  return r / (mu - n * L);
}

TEST(DegreeOfContention, Definition1) {
  EXPECT_DOUBLE_EQ(degreeOfContention(200.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(degreeOfContention(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(degreeOfContention(50.0, 100.0), -0.5);
  EXPECT_THROW((void)degreeOfContention(1.0, 0.0), ContractViolation);
}

TEST(ShapeOf, DerivedFromSpecs) {
  const MachineShape uma = shapeOf(topology::intelUma8());
  EXPECT_EQ(uma.coresPerProcessor, 4);
  EXPECT_EQ(uma.processors, 2);
  EXPECT_EQ(uma.architecture, topology::MemoryArchitecture::kUma);

  const MachineShape numa = shapeOf(topology::intelNuma24());
  EXPECT_EQ(numa.coresPerProcessor, 12);
  EXPECT_EQ(numa.processors, 2);

  const MachineShape amd = shapeOf(topology::amdNuma48());
  EXPECT_EQ(amd.coresPerProcessor, 12);
  EXPECT_EQ(amd.processors, 4);
  EXPECT_EQ(amd.totalCores(), 48);
}

TEST(DefaultFitCores, MatchesThePaperChoices) {
  // Intel UMA: C(1), C(4), C(5).
  EXPECT_EQ(defaultFitCores(shapeOf(topology::intelUma8())),
            (std::vector<int>{1, 4, 5}));
  // Intel NUMA: C(1), C(2), C(12), C(13).
  EXPECT_EQ(defaultFitCores(shapeOf(topology::intelNuma24())),
            (std::vector<int>{1, 2, 12, 13}));
  // AMD NUMA: C(1), C(12), C(13), C(25), C(37)  (paper: five inputs; we
  // add C(2) only on NUMA shapes whose k > 2 — AMD has k = 12, so the
  // list is {1, 2, 12, 13, 25, 37} minus... verify the exact contents).
  const auto amd = defaultFitCores(shapeOf(topology::amdNuma48()));
  EXPECT_EQ(amd, (std::vector<int>{1, 2, 12, 13, 25, 37}));
}

TEST(SingleProcessorModel, RecoversSyntheticParameters) {
  const double r = 1e6;
  const double mu = 1e-2;
  const double L = 5e-4;
  std::vector<MeasuredPoint> points;
  for (int n : {1, 4, 8, 12}) {
    points.push_back({n, eq6(r, mu, L, n)});
  }
  const SingleProcessorModel m = SingleProcessorModel::tryFit(points).value();
  EXPECT_NEAR(m.muOverR(), mu / r, 1e-12);
  EXPECT_NEAR(m.lOverR(), L / r, 1e-14);
  EXPECT_NEAR(m.fitInfo().r2, 1.0, 1e-9);
  EXPECT_NEAR(m.saturationCores(), mu / L, 1e-6);
  for (int n = 1; n <= 12; ++n) {
    EXPECT_NEAR(m.predict(n), eq6(r, mu, L, n), 1e-3);
  }
}

TEST(SingleProcessorModel, PredictClampsAtSaturation) {
  std::vector<MeasuredPoint> points = {{1, eq6(1e6, 1e-2, 1e-3, 1)},
                                       {4, eq6(1e6, 1e-2, 1e-3, 4)}};
  const SingleProcessorModel m = SingleProcessorModel::tryFit(points).value();
  // Saturation at n = 10; prediction beyond it stays finite and monotone.
  const double at9 = m.predict(9);
  const double at15 = m.predict(15);
  EXPECT_TRUE(std::isfinite(at15));
  EXPECT_GE(at15, at9);
}

TEST(SingleProcessorModel, NoContentionHasInfiniteSaturation) {
  const std::vector<MeasuredPoint> flat = {{1, 100.0}, {4, 100.0}, {8, 100.0}};
  const SingleProcessorModel m = SingleProcessorModel::tryFit(flat).value();
  EXPECT_TRUE(std::isinf(m.saturationCores()));
  EXPECT_NEAR(m.predict(8), 100.0, 1e-9);
}

TEST(SingleProcessorModel, RequiresTwoPoints) {
  const std::vector<MeasuredPoint> one = {{1, 100.0}};
  const auto m = SingleProcessorModel::tryFit(one);
  ASSERT_FALSE(m.hasValue());
  EXPECT_EQ(m.error().kind, FitErrorKind::kTooFewPoints);
}

TEST(ColinearityR2, PerfectForEq6Data) {
  std::vector<MeasuredPoint> points;
  for (int n = 1; n <= 12; ++n) {
    points.push_back({n, eq6(5e5, 2e-2, 1e-3, n)});
  }
  EXPECT_NEAR(colinearityR2(points), 1.0, 1e-9);
}

TEST(ColinearityR2, LowForNonM1Behaviour) {
  // Cycles that grow with the square of n: 1/C is convex, not linear.
  std::vector<MeasuredPoint> points;
  for (int n = 1; n <= 12; ++n) {
    points.push_back({n, 100.0 * n * n});
  }
  EXPECT_LT(colinearityR2(points), 0.9);
}

class NumaModelTest : public ::testing::Test {
 protected:
  // Synthetic NUMA machine following the load-split model exactly:
  // C(n) = Cs(n/m) + rho * n * (m-1)/m with Cs from eq. 6.
  static constexpr double kR = 1e6;
  static constexpr double kMu = 1e-2;
  static constexpr double kL = 4e-4;
  // Small enough that activating the second controller produces the
  // measured dip at n = 13 (Fig. 5b): the load split outweighs the
  // remote penalty.
  static constexpr double kRho = 2.0e6;

  static double truth(int n, int k, int processors) {
    const int m = (n - 1) / k + 1;
    (void)processors;
    const double cs = eq6(kR, kMu, kL, static_cast<double>(n) / m);
    return cs + kRho * n * (m - 1.0) / m;
  }
};

TEST_F(NumaModelTest, RecoversLoadSplitModel) {
  MachineShape shape;
  shape.coresPerProcessor = 12;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;

  std::vector<MeasuredPoint> fitPoints;
  for (int n : defaultFitCores(shape)) {
    fitPoints.push_back({n, truth(n, 12, 2)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  for (int n = 1; n <= 24; ++n) {
    EXPECT_NEAR(m.predictCycles(n), truth(n, 12, 2),
                0.02 * truth(n, 12, 2))
        << "n = " << n;
  }
}

TEST_F(NumaModelTest, ShowsTheControllerActivationDip) {
  MachineShape shape;
  shape.coresPerProcessor = 12;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  std::vector<MeasuredPoint> fitPoints;
  for (int n : defaultFitCores(shape)) {
    fitPoints.push_back({n, truth(n, 12, 2)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  // The load split makes C(13) < C(12) (second controller comes online)
  // while growth resumes towards 24 — the shape of Fig. 5(b).
  EXPECT_LT(m.predictCycles(13), m.predictCycles(12));
  EXPECT_GT(m.predictCycles(24), m.predictCycles(13));
}

TEST(NumaModel, HeterogeneousSlopesPerProcessor) {
  // Four processors with increasing remote penalties (AMD-style).
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 4;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  // Build synthetic data with per-boundary slopes 1e5, 2e5, 4e5 on top of
  // an eq-6 single-processor curve (so the 1/C fit is exact).
  auto cs = [](double n) { return eq6(1e6, 1e-2, 1e-3, n); };
  auto truth = [&](int n) {
    const int m = (n - 1) / 4 + 1;
    const double slopes[] = {0.0, 1e5, 2e5, 4e5};
    return cs(static_cast<double>(n) / m) +
           slopes[m - 1] * n * (m - 1.0) / m;
  };
  std::vector<MeasuredPoint> fitPoints;
  for (int n : {1, 2, 4, 5, 9, 13}) {
    fitPoints.push_back({n, truth(n)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  ASSERT_EQ(m.remoteSlopes().size(), 3u);
  EXPECT_NEAR(m.remoteSlopes()[0], 1e5, 2e3);
  EXPECT_NEAR(m.remoteSlopes()[1], 2e5, 2e4);
  EXPECT_NEAR(m.remoteSlopes()[2], 4e5, 4e4);
  for (int n : {6, 10, 16}) {
    EXPECT_NEAR(m.predictCycles(n), truth(n), 0.05 * truth(n));
  }
}

TEST(NumaModel, HomogeneousOptionReusesFirstSlope) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 3;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {
      {1, 1000.0}, {4, 1300.0}, {5, 1500.0}};
  ContentionModel::Options options;
  options.homogeneousRemote = true;
  const ContentionModel m =
      ContentionModel::tryFit(shape, points, options).value();
  ASSERT_EQ(m.remoteSlopes().size(), 2u);
  EXPECT_DOUBLE_EQ(m.remoteSlopes()[0], m.remoteSlopes()[1]);
}

TEST(UmaModel, FollowsEq8Composition) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kUma;
  // Synthetic eq-8 truth: the machine-wide shared-controller queue (eq. 6
  // over all n) plus the second processor's bus correction delta * extra.
  const double r = 1e6;
  const double mu = 1e-2;
  const double L = 8e-4;
  const double delta = 1e7;
  auto cs = [&](int n) { return eq6(r, mu, L, n); };
  auto truth = [&](int n) {
    if (n <= 4) {
      return cs(n);
    }
    return cs(n) + delta * (n - 4);
  };
  std::vector<MeasuredPoint> fitPoints;
  for (int n : defaultFitCores(shape)) {
    fitPoints.push_back({n, truth(n)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  for (int n = 1; n <= 8; ++n) {
    EXPECT_NEAR(m.predictCycles(n), truth(n), 0.01 * truth(n)) << n;
  }
  EXPECT_NEAR(m.remoteSlopes()[0], delta, 0.02 * delta);
}

TEST(ContentionModel, OmegaUsesMeasuredC1) {
  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {{1, 1000.0}, {2, 1500.0}};
  const ContentionModel m = ContentionModel::tryFit(shape, points).value();
  EXPECT_DOUBLE_EQ(m.measuredC1(), 1000.0);
  EXPECT_NEAR(m.predictOmega(2), 0.5, 1e-9);
  EXPECT_NEAR(m.predictOmega(1), 0.0, 1e-9);
}

TEST(ContentionModel, FitRequiresC1) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {{2, 1000.0}, {4, 1200.0}};
  EXPECT_FALSE(ContentionModel::tryFit(shape, points).hasValue());
}

TEST(ContentionModel, FitRequiresBoundaryPointForSecondProcessor) {
  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {{1, 1000.0}, {2, 1200.0},
                                             {3, 1500.0}};
  EXPECT_TRUE(ContentionModel::tryFit(shape, points).hasValue());
  const std::vector<MeasuredPoint> missing = {{1, 1000.0}, {2, 1200.0}};
  EXPECT_FALSE(ContentionModel::tryFit(shape, missing).hasValue());
}

TEST(ContentionModel, PredictOutsideMachineThrows) {
  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 1;
  const std::vector<MeasuredPoint> points = {{1, 1000.0}, {2, 1100.0}};
  const ContentionModel m = ContentionModel::tryFit(shape, points).value();
  EXPECT_THROW((void)m.predictCycles(0), ContractViolation);
  EXPECT_THROW((void)m.predictCycles(3), ContractViolation);
}

TEST(Validate, ReportsPerPointAndMeanError) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  std::vector<MeasuredPoint> fitPoints;
  for (int n : {1, 4}) {
    fitPoints.push_back({n, eq6(1e6, 1e-2, 5e-4, n)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  std::vector<MeasuredPoint> all;
  for (int n = 1; n <= 4; ++n) {
    all.push_back({n, eq6(1e6, 1e-2, 5e-4, n) * 1.10});  // 10% off
  }
  const ValidationReport report = validate(m, all);
  ASSERT_EQ(report.rows.size(), 4u);
  for (const auto& row : report.rows) {
    EXPECT_NEAR(row.relativeError, 1.0 - 1.0 / 1.10, 0.01);
    EXPECT_GT(row.measuredCycles, 0.0);
  }
  EXPECT_NEAR(report.meanRelativeError, 1.0 - 1.0 / 1.10, 0.01);
}

TEST(Validate, DegenerateMeasurementsAreFlaggedNotDivided) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  std::vector<MeasuredPoint> fitPoints;
  for (int n : {1, 4}) {
    fitPoints.push_back({n, eq6(1e6, 1e-2, 5e-4, n)});
  }
  const ContentionModel m = ContentionModel::tryFit(shape, fitPoints).value();
  // A crashed 3-core run recorded as zero cycles must not poison the
  // report with a division by zero.
  const std::vector<MeasuredPoint> all = {
      {1, eq6(1e6, 1e-2, 5e-4, 1)},
      {2, eq6(1e6, 1e-2, 5e-4, 2)},
      {3, 0.0},
      {4, eq6(1e6, 1e-2, 5e-4, 4)}};
  const ValidationReport report = validate(m, all);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.degenerateRows, 1u);
  EXPECT_TRUE(report.rows[2].degenerate);
  EXPECT_DOUBLE_EQ(report.rows[2].relativeError, 0.0);
  EXPECT_FALSE(report.rows[0].degenerate);
  EXPECT_TRUE(std::isfinite(report.meanRelativeError));
  EXPECT_NEAR(report.meanRelativeError, 0.0, 1e-6);  // 3 clean rows only
}

// ---------------------------------------------------------------------------
// Hardened fitting: typed diagnoses instead of NaN/inf or thrown garbage.

TEST(SingleProcessorModel, ExactlyTwoPointsFitExactly) {
  // The minimum legal input: two distinct points determine the line.
  const double r = 1e6, mu = 1e-2, L = 5e-4;
  const std::vector<MeasuredPoint> two = {{1, eq6(r, mu, L, 1)},
                                          {4, eq6(r, mu, L, 4)}};
  const auto m = SingleProcessorModel::tryFit(two);
  ASSERT_TRUE(m.hasValue());
  EXPECT_NEAR(m->muOverR(), mu / r, 1e-12);
  EXPECT_NEAR(m->lOverR(), L / r, 1e-14);
}

TEST(SingleProcessorModel, TryFitDiagnosesDegenerateInput) {
  const std::vector<MeasuredPoint> one = {{1, 100.0}};
  const auto tooFew = SingleProcessorModel::tryFit(one);
  ASSERT_FALSE(tooFew.hasValue());
  EXPECT_EQ(tooFew.error().kind, FitErrorKind::kTooFewPoints);

  const std::vector<MeasuredPoint> dup = {{3, 100.0}, {3, 120.0}};
  const auto duplicate = SingleProcessorModel::tryFit(dup);
  ASSERT_FALSE(duplicate.hasValue());
  EXPECT_EQ(duplicate.error().kind, FitErrorKind::kDuplicateCores);

  const std::vector<MeasuredPoint> zeroCore = {{0, 100.0}, {1, 120.0}};
  const auto invalidCore = SingleProcessorModel::tryFit(zeroCore);
  ASSERT_FALSE(invalidCore.hasValue());
  EXPECT_EQ(invalidCore.error().kind, FitErrorKind::kInvalidCoreCount);
  EXPECT_EQ(invalidCore.error().cores, 0);

  for (double cycles : {0.0, -1.0, std::nan("")}) {
    const std::vector<MeasuredPoint> bad = {{1, cycles}, {2, 200.0}};
    const auto nonPositive = SingleProcessorModel::tryFit(bad);
    ASSERT_FALSE(nonPositive.hasValue()) << cycles;
    EXPECT_EQ(nonPositive.error().kind, FitErrorKind::kNonPositiveCycles);
  }
}

TEST(SingleProcessorModel, TryFitDiagnosesSaturatedRegime) {
  // 1/C = -0.5 + n: negative intercept, i.e. the fitted queue is already
  // past saturation inside the measured range.
  const std::vector<MeasuredPoint> points = {{1, 2.0}, {2, 1.0 / 1.5}};
  const auto m = SingleProcessorModel::tryFit(points);
  ASSERT_FALSE(m.hasValue());
  EXPECT_EQ(m.error().kind, FitErrorKind::kSaturated);
  EXPECT_NE(m.error().describe().find("saturated"), std::string::npos);
}

TEST(SingleProcessorModel, DecreasingCyclesMeanNoSaturation) {
  // C(n) shrinking with n (positive cache effects): fitted contention is
  // non-positive, so the queue never saturates and omega is negative.
  const std::vector<MeasuredPoint> points = {{1, 200.0}, {2, 150.0},
                                             {4, 100.0}};
  const auto m = SingleProcessorModel::tryFit(points);
  ASSERT_TRUE(m.hasValue());
  EXPECT_LE(m->lOverR(), 0.0);
  EXPECT_TRUE(std::isinf(m->saturationCores()));
  EXPECT_GT(m->predict(4), 0.0);
}

TEST(ContentionModel, TryFitDiagnosesMissingC1) {
  MachineShape shape;
  shape.coresPerProcessor = 4;
  shape.processors = 1;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {{2, 1000.0}, {4, 1200.0}};
  const auto m = ContentionModel::tryFit(shape, points);
  ASSERT_FALSE(m.hasValue());
  EXPECT_EQ(m.error().kind, FitErrorKind::kMissingC1);
  // The diagnosis names what IS there, so the fix is obvious.
  EXPECT_NE(m.error().message.find("2, 4"), std::string::npos);
}

TEST(ContentionModel, TryFitDiagnosesMissingBoundary) {
  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> missing = {{1, 1000.0}, {2, 1200.0}};
  const auto m = ContentionModel::tryFit(shape, missing);
  ASSERT_FALSE(m.hasValue());
  EXPECT_EQ(m.error().kind, FitErrorKind::kMissingBoundary);
  EXPECT_NE(m.error().message.find("1, 2"), std::string::npos);

  // Homogeneous-remote mode still needs the first boundary point.
  ContentionModel::Options options;
  options.homogeneousRemote = true;
  const auto homogeneous = ContentionModel::tryFit(shape, missing, options);
  ASSERT_FALSE(homogeneous.hasValue());
  EXPECT_EQ(homogeneous.error().kind, FitErrorKind::kMissingBoundary);
}

TEST(ContentionModel, TryFitDiagnosesBadShapeAndForeignPoints) {
  MachineShape badShape;
  badShape.coresPerProcessor = 0;
  badShape.processors = 2;
  const std::vector<MeasuredPoint> points = {{1, 1000.0}, {2, 1200.0}};
  const auto shapeError = ContentionModel::tryFit(badShape, points);
  ASSERT_FALSE(shapeError.hasValue());
  EXPECT_EQ(shapeError.error().kind, FitErrorKind::kInvalidShape);

  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 1;
  const std::vector<MeasuredPoint> outside = {{1, 1000.0}, {5, 1200.0}};
  const auto coreError = ContentionModel::tryFit(shape, outside);
  ASSERT_FALSE(coreError.hasValue());
  EXPECT_EQ(coreError.error().kind, FitErrorKind::kInvalidCoreCount);
  EXPECT_EQ(coreError.error().cores, 5);
}

TEST(ContentionModel, FitAtProcessorBoundaryPointsOnly) {
  // Exactly the paper's minimal NUMA input set {1, 2, k, k+1} with k = 2:
  // every point sits on or adjacent to a boundary.
  MachineShape shape;
  shape.coresPerProcessor = 2;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;
  const std::vector<MeasuredPoint> points = {{1, 1000.0}, {2, 1300.0},
                                             {3, 1900.0}, {4, 2600.0}};
  const auto m = ContentionModel::tryFit(shape, points);
  ASSERT_TRUE(m.hasValue());
  EXPECT_GT(m->predictCycles(4), m->predictCycles(1));
  EXPECT_NO_THROW((void)m->predictOmega(4));
}

}  // namespace
}  // namespace occm::model
