// Burstiness profile: sample a workload's off-chip traffic with the 5 us
// miss sampler and classify it (the paper's section III-B.2 methodology).
//
// Usage: burstiness_profile [program] [class...]
//   e.g. burstiness_profile CG S C
//        burstiness_profile x264 simsmall native
// Defaults to CG with all five NPB classes.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"

int main(int argc, char** argv) {
  using namespace occm;

  workloads::Program program = workloads::Program::kCG;
  std::vector<workloads::ProblemClass> classes = {
      workloads::ProblemClass::kS, workloads::ProblemClass::kW,
      workloads::ProblemClass::kA, workloads::ProblemClass::kB,
      workloads::ProblemClass::kC};
  if (argc > 1) {
    program = examples::programArg(argv[1]);
    if (argc > 2) {
      classes.clear();
      for (int i = 2; i < argc; ++i) {
        classes.push_back(examples::classArg(program, argv[i]));
      }
    } else if (program == workloads::Program::kX264) {
      classes = {workloads::ProblemClass::kSimSmall,
                 workloads::ProblemClass::kSimMedium,
                 workloads::ProblemClass::kSimLarge,
                 workloads::ProblemClass::kNative};
    }
  }

  const auto machine = topology::intelNuma24();
  std::printf("Sampling LLC misses every 5 us on %s (%d threads, %d cores)\n",
              machine.name.c_str(), machine.logicalCores(),
              machine.logicalCores());

  for (workloads::ProblemClass cls : classes) {
    analysis::SweepConfig config;
    config.machine = machine;
    config.workload.program = program;
    config.workload.problemClass = cls;
    config.sim.enableSampler = true;
    config.coreCounts = {machine.logicalCores()};
    const auto sweep = analysis::runSweep(config);
    const auto& profile = sweep.profiles.front();
    const model::BurstinessReport report =
        model::analyzeBurstiness(profile.missWindows);
    std::printf("\n%s:\n", profile.program.c_str());
    std::printf("  %llu misses over %llu windows; idle fraction %.3f\n",
                static_cast<unsigned long long>(profile.counters.llcMisses),
                static_cast<unsigned long long>(report.totalWindows),
                report.idleFraction);
    std::printf("  burst sizes: mean %.1f, max %.0f, cv %.2f -> %s\n",
                report.meanBurst, report.maxBurst, report.cv,
                report.bursty ? "BURSTY" : "NON-BURSTY");
  }
  return 0;
}
