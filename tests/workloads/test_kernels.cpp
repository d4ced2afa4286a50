// Characterisation tests of the six workload kernels: reference counts,
// working sets, sharing and class scaling.

#include "workloads/kernels.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "support/stream_analysis.hpp"
#include "workloads/workload.hpp"

namespace occm::workloads {
namespace {

constexpr std::uint64_t kMaxRefs = 50'000'000;

trace::StreamStats statsOf(const KernelBuild& build, int thread) {
  PhaseStream stream(build.threadPhases[static_cast<std::size_t>(thread)]);
  return trace::analyzeStream(stream, kMaxRefs);
}

struct ProgramCase {
  Program program;
  ProblemClass cls;
};

class KernelCharacterisation : public ::testing::TestWithParam<ProgramCase> {};

TEST_P(KernelCharacterisation, BuildsNonTrivialPerThreadStreams) {
  const auto [program, cls] = GetParam();
  const KernelBuild build = buildKernel(program, cls, 4, 1);
  ASSERT_EQ(build.threadPhases.size(), 4u);
  EXPECT_FALSE(build.sizeDescription.empty());
  for (int t = 0; t < 4; ++t) {
    const trace::StreamStats stats = statsOf(build, t);
    EXPECT_GT(stats.refs, 100u) << "thread " << t;
    EXPECT_GT(stats.workCycles, 0u);
    EXPECT_GT(stats.instructions, 0u);
  }
}

TEST_P(KernelCharacterisation, DeterministicAcrossBuilds) {
  const auto [program, cls] = GetParam();
  const KernelBuild a = buildKernel(program, cls, 2, 7);
  const KernelBuild b = buildKernel(program, cls, 2, 7);
  PhaseStream sa(a.threadPhases[0]);
  PhaseStream sb(b.threadPhases[0]);
  trace::Op oa;
  trace::Op ob;
  for (int i = 0; i < 10'000; ++i) {
    const bool ha = sa.next(oa);
    const bool hb = sb.next(ob);
    ASSERT_EQ(ha, hb);
    if (!ha) {
      break;
    }
    ASSERT_EQ(oa.addr, ob.addr);
    ASSERT_EQ(oa.work, ob.work);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, KernelCharacterisation,
    ::testing::Values(ProgramCase{Program::kEP, ProblemClass::kW},
                      ProgramCase{Program::kIS, ProblemClass::kW},
                      ProgramCase{Program::kFT, ProblemClass::kW},
                      ProgramCase{Program::kCG, ProblemClass::kW},
                      ProgramCase{Program::kSP, ProblemClass::kW},
                      ProgramCase{Program::kX264, ProblemClass::kSimSmall}));

TEST(KernelScaling, CgWorkingSetGrowsWithClass) {
  Bytes previous = 0;
  for (ProblemClass cls : {ProblemClass::kS, ProblemClass::kW,
                           ProblemClass::kA, ProblemClass::kB,
                           ProblemClass::kC}) {
    const KernelBuild build = buildCg(cls, 1, 1);
    EXPECT_GT(build.sharedBytes, previous)
        << "class " << problemClassName(cls);
    previous = build.sharedBytes;
  }
}

TEST(KernelScaling, X264FootprintGrowsToNative) {
  const Bytes sim = buildX264(ProblemClass::kSimSmall, 1, 1).sharedBytes;
  const Bytes native = buildX264(ProblemClass::kNative, 1, 1).sharedBytes;
  EXPECT_GT(native, 4 * sim);
}

TEST(KernelCg, GatherDominatedAndShared) {
  const KernelBuild build = buildCg(ProblemClass::kW, 2, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  EXPECT_EQ(stats.sharedFraction(), 1.0);  // CG state is all shared
  // Working set per thread ~ matrix slice + vectors; far beyond L1.
  EXPECT_GT(stats.workingSetBytes, 64 * kKiB);
}

TEST(KernelCg, IterationsRevisitTheSameElements) {
  // The working set of 2 iterations equals the working set of 4:
  // iterations replay the same sparse pattern.
  const KernelBuild build = buildCg(ProblemClass::kS, 1, 1);
  PhaseStream stream(build.threadPhases[0]);
  const auto half = trace::analyzeStream(stream, stream.totalOps() / 2);
  stream.reset();
  const auto full = trace::analyzeStream(stream, kMaxRefs);
  EXPECT_LT(static_cast<double>(full.distinctLines),
            1.2 * static_cast<double>(half.distinctLines));
}

TEST(KernelEp, MostlyPrivateWithSharedTallies) {
  const KernelBuild build = buildEp(ProblemClass::kW, 4, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  EXPECT_LT(stats.sharedFraction(), 0.2);
  EXPECT_GT(stats.sharedFraction(), 0.0);
  // Tiny working set: buffer + tally lines.
  EXPECT_LT(stats.workingSetBytes, 32 * kKiB);
  // Compute heavy: much more work per reference than CG.
  const trace::StreamStats cg = statsOf(buildCg(ProblemClass::kW, 4, 1), 0);
  EXPECT_GT(stats.workPerRef(), cg.workPerRef());
}

TEST(KernelEp, SharedFootprintIsTwoLines) {
  const KernelBuild build = buildEp(ProblemClass::kS, 8, 1);
  EXPECT_EQ(build.sharedBytes, 128u);
}

TEST(KernelIs, WritesFractionSubstantial) {
  const KernelBuild build = buildIs(ProblemClass::kW, 2, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  EXPECT_GT(stats.writeFraction(), 0.2);
  EXPECT_LT(stats.writeFraction(), 0.8);
}

TEST(KernelFt, PencilStridesPresent) {
  const KernelBuild build = buildFt(ProblemClass::kS, 1, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  // grid 16: y stride = 16*16 = 256 bytes, z stride = 16*16*16 = 4096.
  EXPECT_TRUE(stats.strides.count(256) > 0);
  EXPECT_TRUE(stats.strides.count(4096) > 0);
  EXPECT_TRUE(stats.strides.count(64) > 0);  // unit-stride x pass
}

TEST(KernelSp, PlaneStridePresentAndWriteHeavy) {
  const KernelBuild build = buildSp(ProblemClass::kS, 1, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  // grid 8, 40 B cells: row stride 320, plane stride 2560.
  EXPECT_TRUE(stats.strides.count(320) > 0);
  EXPECT_TRUE(stats.strides.count(2560) > 0);
  EXPECT_GT(stats.writeFraction(), 0.35);
}

TEST(KernelX264, SearchLocalityIsCompact) {
  const KernelBuild build = buildX264(ProblemClass::kSimSmall, 1, 1);
  const trace::StreamStats stats = statsOf(build, 0);
  // Frames + output ring at 160x90: the whole working set is small.
  EXPECT_LT(stats.workingSetBytes, 256 * kKiB);
  EXPECT_EQ(stats.sharedFraction(), 1.0);
}

TEST(KernelX264, FramesRoundRobinOverThreads) {
  const KernelBuild build = buildX264(ProblemClass::kSimSmall, 3, 1);
  // 8 frames over 3 threads: threads 0,1 get 3 frames, thread 2 gets 2.
  const auto ops0 = statsOf(build, 0).refs;
  const auto ops2 = statsOf(build, 2).refs;
  EXPECT_GT(ops0, ops2);
}

TEST(Workloads, ThreadsPartitionTheWork) {
  // Total references across threads are within 1% regardless of the
  // thread count (fixed problem size, the paper's protocol).
  auto total = [](int threads) {
    const KernelBuild build = buildCg(ProblemClass::kW, threads, 1);
    std::uint64_t refs = 0;
    for (int t = 0; t < threads; ++t) {
      PhaseStream stream(build.threadPhases[static_cast<std::size_t>(t)]);
      refs += trace::analyzeStream(stream, kMaxRefs).refs;
    }
    return refs;
  };
  const auto t1 = total(1);
  const auto t8 = total(8);
  EXPECT_NEAR(static_cast<double>(t8), static_cast<double>(t1),
              0.01 * static_cast<double>(t1));
}

TEST(WorkloadFactory, NamesFollowPaperNotation) {
  WorkloadSpec spec;
  spec.program = Program::kSP;
  spec.problemClass = ProblemClass::kC;
  spec.threads = 2;
  const WorkloadInstance instance = makeWorkload(spec);
  EXPECT_EQ(instance.name, "SP.C");
  EXPECT_EQ(instance.threads.size(), 2u);
  EXPECT_GT(instance.totalOps, 0u);
  EXPECT_GT(instance.sharedBytes, 0u);
}

TEST(WorkloadFactory, InvalidClassCombinationsThrow) {
  EXPECT_THROW((void)buildKernel(Program::kCG, ProblemClass::kNative, 1, 1),
               ContractViolation);
  EXPECT_THROW((void)buildKernel(Program::kX264, ProblemClass::kC, 1, 1),
               ContractViolation);
  WorkloadSpec spec;
  spec.threads = 0;
  EXPECT_THROW((void)makeWorkload(spec), ContractViolation);
}

TEST(ProblemNames, ValidityMatrix) {
  EXPECT_TRUE(classValidFor(Program::kEP, ProblemClass::kA));
  EXPECT_FALSE(classValidFor(Program::kEP, ProblemClass::kSimLarge));
  EXPECT_TRUE(classValidFor(Program::kX264, ProblemClass::kNative));
  EXPECT_FALSE(classValidFor(Program::kX264, ProblemClass::kS));
  EXPECT_STREQ(programName(Program::kX264), "x264");
  EXPECT_STREQ(problemClassName(ProblemClass::kSimMedium), "simmedium");
  EXPECT_EQ(workloadName(Program::kFT, ProblemClass::kB), "FT.B");
}

}  // namespace
}  // namespace occm::workloads
