// Parameterized class-scaling properties across all NPB kernels: working
// sets and total work must grow monotonically with the problem class
// (the x-axis of the paper's size/contention/burstiness relationships).

#include <gtest/gtest.h>

#include "support/stream_analysis.hpp"
#include "workloads/kernels.hpp"

namespace occm::workloads {
namespace {

constexpr std::uint64_t kMaxRefs = 80'000'000;

struct TotalStats {
  Bytes sharedBytes = 0;
  std::uint64_t refs = 0;
  Cycles work = 0;
};

TotalStats totals(Program program, ProblemClass cls) {
  const KernelBuild build = buildKernel(program, cls, 2, 1);
  TotalStats out;
  out.sharedBytes = build.sharedBytes;
  for (const auto& phases : build.threadPhases) {
    PhaseStream stream(phases);
    const auto stats = trace::analyzeStream(stream, kMaxRefs);
    out.refs += stats.refs;
    out.work += stats.workCycles;
  }
  return out;
}

class ClassScaling : public ::testing::TestWithParam<Program> {};

TEST_P(ClassScaling, WorkGrowsWithClass) {
  const Program program = GetParam();
  Cycles previous = 0;
  for (ProblemClass cls : {ProblemClass::kS, ProblemClass::kW,
                           ProblemClass::kA, ProblemClass::kB,
                           ProblemClass::kC}) {
    const TotalStats t = totals(program, cls);
    EXPECT_GT(t.work, previous) << problemClassName(cls);
    previous = t.work;
  }
}

TEST_P(ClassScaling, ReferencesGrowFromSToC) {
  const Program program = GetParam();
  const TotalStats s = totals(program, ProblemClass::kS);
  const TotalStats c = totals(program, ProblemClass::kC);
  EXPECT_GT(c.refs, 2 * s.refs);
}

INSTANTIATE_TEST_SUITE_P(NpbKernels, ClassScaling,
                         ::testing::Values(Program::kEP, Program::kIS,
                                           Program::kFT, Program::kCG,
                                           Program::kSP));

class SharedFootprintScaling : public ::testing::TestWithParam<Program> {};

TEST_P(SharedFootprintScaling, GrowsWithClassForDataKernels) {
  // EP's shared footprint is the fixed tally table; every other kernel's
  // shared data grows with the class.
  const Program program = GetParam();
  const Bytes b = totals(program, ProblemClass::kB).sharedBytes;
  const Bytes c = totals(program, ProblemClass::kC).sharedBytes;
  EXPECT_GT(c, b);
}

INSTANTIATE_TEST_SUITE_P(DataKernels, SharedFootprintScaling,
                         ::testing::Values(Program::kIS, Program::kFT,
                                           Program::kCG, Program::kSP));

TEST(ClassScalingX264, InputsGrowMonotonically) {
  Cycles previous = 0;
  for (ProblemClass cls :
       {ProblemClass::kSimSmall, ProblemClass::kSimMedium,
        ProblemClass::kSimLarge, ProblemClass::kNative}) {
    const KernelBuild build = buildKernel(Program::kX264, cls, 2, 1);
    Cycles work = 0;
    for (const auto& phases : build.threadPhases) {
      PhaseStream stream(phases);
      work += trace::analyzeStream(stream, kMaxRefs).workCycles;
    }
    EXPECT_GT(work, previous) << problemClassName(cls);
    previous = work;
  }
}

TEST(ClassScalingX264, IFramesEveryEighthFrame) {
  // GOP structure: I-frames skip motion search; with 8 frames on one
  // thread, exactly one frame (frame 0) is intra-coded, so the gather
  // count is 7/8 of an all-P build.
  const KernelBuild build = buildX264(ProblemClass::kSimSmall, 1, 1);
  std::uint64_t gatherPhases = 0;
  for (const Phase& phase : build.threadPhases[0]) {
    gatherPhases += phase.kind == Phase::Kind::kGather ? 1 : 0;
  }
  // 8 frames, 1 I-frame, 5 macroblock rows per 90-pixel-high frame.
  EXPECT_EQ(gatherPhases, 7u * (90 / 16));
}

TEST(ClassScalingCg, WorkingSetStraddlesTheScaledCaches) {
  // The regimes behind the paper's two behaviours: S/W fit the (scaled)
  // 384 KiB socket LLC, B/C far exceed even both sockets' LLCs.
  EXPECT_LT(totals(Program::kCG, ProblemClass::kW).sharedBytes, 384 * kKiB);
  EXPECT_GT(totals(Program::kCG, ProblemClass::kB).sharedBytes,
            2 * 384 * kKiB);
}

}  // namespace
}  // namespace occm::workloads
