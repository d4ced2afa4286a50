// Regenerates the committed seed corpus of fuzz_checkpoint: a real
// checkpoint written by an isolated CG.S sweep on testNuma4 whose 3-core
// run dies on an injected abort at every attempt. The file carries three
// records with wire-encoded run profiles and one with a persisted crash
// record, so the fuzzer starts inside wire::readOutcome instead of
// rediscovering the format from random bytes. Regenerate after any
// change to the checkpoint format or to the outcome's wire encoding.
//
//   gen_checkpoint_corpus [corpus-root]   (default: fuzz/corpus)

#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/experiment.hpp"
#include "topology/presets.hpp"

int main(int argc, char** argv) {
  using namespace occm;
  const std::filesystem::path dir =
      std::filesystem::path(argc > 1 ? argv[1] : "fuzz/corpus") /
      "checkpoint";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "crash_sweep.bin").string();
  std::filesystem::remove(path);

  analysis::SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  config.parallel.workers = 1;
  config.isolation.enabled = true;
  config.checkpointPath = path;
  config.sim.faultPlan.crashAbort(20'000, 3);
  const analysis::SweepResult sweep = analysis::runSweep(config);
  if (sweep.profiles.size() != 3 || sweep.failures.size() != 1 ||
      sweep.failures[0].kind != analysis::RunFailureKind::kCrash) {
    std::fprintf(stderr, "unexpected sweep outcome: %s\n",
                 sweep.diagnostics().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
