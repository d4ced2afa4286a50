// Integration tests of the full paper pipeline: simulate -> measure ->
// fit the contention model -> validate, plus the burstiness observation.
// These use the real workload kernels on the paper machines (scaled), so
// they are the slowest tests in the suite (a few seconds each).

#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "core/occm.hpp"

namespace occm {
namespace {

using analysis::SweepConfig;
using analysis::SweepResult;

TEST(PaperPipeline, CgModelFitsHighContentionWithinPaperError) {
  // CG.C on the Intel NUMA machine: fit from the paper's four regression
  // inputs, validate against a coarse sweep. The paper reports 5-14%
  // average error for high-contention programs; we require < 20%.
  SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kC;
  config.coreCounts = {1, 2, 4, 8, 12, 13, 16, 20, 24};
  const SweepResult sweep = analysis::runSweep(config);

  const model::MachineShape shape = model::shapeOf(config.machine);
  const auto fitPoints = analysis::pointsAt(sweep, {1, 2, 12, 13});
  const model::ContentionModel m =
      model::ContentionModel::tryFit(shape, fitPoints).value();
  const model::ValidationReport report = model::validate(m, sweep.points());
  EXPECT_LT(report.meanRelativeError, 0.20);

  // Contention is high (omega well above 1 at 24 cores) and grows.
  const auto omegas = sweep.omegas();
  EXPECT_GT(omegas.back(), 1.0);
}

TEST(PaperPipeline, WorkCyclesAndMissesRoughlyConstant) {
  // Fig. 3's observation: work cycles and LLC misses change little with
  // the number of active cores while total cycles grow.
  SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kB;
  config.coreCounts = {1, 12, 24};
  const SweepResult sweep = analysis::runSweep(config);
  const auto& p1 = sweep.at(1);
  const auto& p24 = sweep.at(24);
  EXPECT_EQ(p1.counters.workCycles(), p24.counters.workCycles());
  const double missGrowth = static_cast<double>(p24.counters.llcMisses) /
                            static_cast<double>(p1.counters.llcMisses);
  EXPECT_GT(missGrowth, 0.6);
  EXPECT_LT(missGrowth, 1.6);
  EXPECT_GT(p24.counters.totalCycles, p1.counters.totalCycles);
  // The growth is in stalls, not work (Fig. 3's decomposition).
  EXPECT_GT(p24.counters.stallCycles - p1.counters.stallCycles,
            (p24.counters.totalCycles - p1.counters.totalCycles) * 9 / 10);
}

TEST(PaperPipeline, EpShowsLowContentionAndMissGrowth) {
  SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload.program = workloads::Program::kEP;
  config.workload.problemClass = workloads::ProblemClass::kW;
  config.coreCounts = {1, 12, 24};
  const SweepResult sweep = analysis::runSweep(config);
  const auto omegas = sweep.omegas();
  // Low contention: |omega| stays below 0.6 everywhere (paper: <= 0.57).
  for (double w : omegas) {
    EXPECT_LT(std::abs(w), 0.6);
  }
  // The paper's EP anomaly: once the second socket activates, false
  // sharing of the tally lines produces off-chip coherence misses that
  // simply do not exist while all threads share one socket's LLC.
  EXPECT_EQ(sweep.at(12).coherenceMisses, 0u);
  EXPECT_GT(sweep.at(24).coherenceMisses, 1000u);
}

TEST(PaperPipeline, SecondControllerReducesContention) {
  // The measured dip when the second memory controller comes online
  // (Fig. 5b at n = 13).
  SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kC;
  config.coreCounts = {12, 13};
  const SweepResult sweep = analysis::runSweep(config);
  EXPECT_LT(sweep.at(13).counters.totalCycles,
            sweep.at(12).counters.totalCycles);
}

TEST(PaperPipeline, SmallProblemBurstyLargeProblemNot) {
  // Section III-B.2: CG.S traffic is bursty; CG.C traffic is not.
  sim::SimConfig simConfig;
  simConfig.enableSampler = true;
  SweepConfig small;
  small.machine = topology::intelNuma24();
  small.sim = simConfig;
  small.workload.program = workloads::Program::kCG;
  small.workload.problemClass = workloads::ProblemClass::kS;
  small.coreCounts = {24};
  const SweepResult smallSweep = analysis::runSweep(small);
  const auto smallReport =
      model::analyzeBurstiness(smallSweep.at(24).missWindows);

  SweepConfig large = small;
  large.workload.problemClass = workloads::ProblemClass::kC;
  const SweepResult largeSweep = analysis::runSweep(large);
  const auto largeReport =
      model::analyzeBurstiness(largeSweep.at(24).missWindows);

  EXPECT_TRUE(smallReport.bursty);
  EXPECT_FALSE(largeReport.bursty);
  // Saturation: the large problem has almost no idle windows.
  EXPECT_GT(smallReport.idleFraction, largeReport.idleFraction);
  EXPECT_LT(largeReport.idleFraction, 0.05);
}

TEST(PaperPipeline, Table4OrderingHighContentionIsMoreColinear) {
  // Programs with large contention fit the M/M/1 line better than
  // low-contention (bursty) ones — the paper's Table IV correlation.
  SweepConfig cg;
  cg.machine = topology::intelUma8();
  cg.workload.program = workloads::Program::kCG;
  cg.workload.problemClass = workloads::ProblemClass::kC;
  cg.coreCounts = {1, 2, 3, 4};
  const double cgR2 = model::colinearityR2(analysis::runSweep(cg).points());

  SweepConfig ep = cg;
  ep.workload.program = workloads::Program::kEP;
  const double epR2 = model::colinearityR2(analysis::runSweep(ep).points());

  EXPECT_GT(cgR2, 0.85);
  EXPECT_GE(cgR2, epR2 - 0.05);
}

TEST(PaperPipeline, UmaBusContentionPerProcessorShape) {
  // On the UMA machine the second socket's own bus relieves pressure:
  // the per-core increment from 4->5 is smaller than from 3->4 (Fig. 5a's
  // per-processor growth pattern).
  SweepConfig config;
  config.machine = topology::intelUma8();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kC;
  config.coreCounts = {3, 4, 5};
  const SweepResult sweep = analysis::runSweep(config);
  const double inc34 = sweep.at(4).totalCyclesD() - sweep.at(3).totalCyclesD();
  const double inc45 = sweep.at(5).totalCyclesD() - sweep.at(4).totalCyclesD();
  EXPECT_LT(inc45, inc34);
}

}  // namespace
}  // namespace occm
