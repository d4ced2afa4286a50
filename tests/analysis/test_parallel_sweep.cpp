// Determinism-first regression tests for the parallel sweep engine: for
// every pool size, runSweep must produce byte-identical sweepToCsv output
// and identical fault counters to the serial path — on a UMA and a NUMA
// preset, with and without a FaultPlan — and checkpoint/resume under
// concurrency must converge to the uninterrupted result.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "exec/wire_codec.hpp"
#include "obs/run_trace.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

SweepConfig presetConfig(const topology::MachineSpec& machine,
                         bool withFaults) {
  SweepConfig config;
  config.machine = machine;
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  if (withFaults) {
    // Controller fault + throttle + ECC spike: exercises rerouting or
    // degraded service, retry and throttled-cycle accounting. The NUMA
    // preset loses node 1 (node 0 — the sole active controller at low
    // core counts — absorbs its traffic); the single-controller UMA
    // preset degrades node 0 instead, since an outage there would leave
    // no healthy controller and invalidate the plan.
    if (machine.controllers() > 1) {
      config.sim.faultPlan.controllerOutage(1, 20'000, 60'000);
    } else {
      config.sim.faultPlan.controllerDegrade(0, 20'000, 60'000, 2.0);
    }
    config.sim.faultPlan.coreThrottle(1, 10'000, 50'000, 2.0);
    config.sim.faultPlan.eccSpike(0, 70'000, 90'000, 0.05, 200);
  }
  return config;
}

/// The cross-run fingerprint the determinism contract covers: the full
/// CSV export plus every fault counter the profiles carry.
struct SweepFingerprint {
  std::string csv;
  std::vector<std::uint64_t> faultCounters;

  static SweepFingerprint of(const SweepResult& sweep) {
    SweepFingerprint fp;
    fp.csv = sweepToCsv(sweep);
    for (const perf::RunProfile& p : sweep.profiles) {
      fp.faultCounters.push_back(p.reroutedRequests);
      fp.faultCounters.push_back(p.faultRetries);
      fp.faultCounters.push_back(p.backgroundRequests);
      fp.faultCounters.push_back(static_cast<std::uint64_t>(p.throttledCycles));
      fp.faultCounters.push_back(p.writebacks);
      fp.faultCounters.push_back(p.coherenceMisses);
    }
    return fp;
  }
};

void expectBitIdenticalAcrossPoolSizes(const topology::MachineSpec& machine,
                                       bool withFaults) {
  SweepConfig config = presetConfig(machine, withFaults);
  config.parallel.workers = 1;
  const SweepResult serial = runSweep(config);
  EXPECT_EQ(serial.requestedWorkers, 1);
  const SweepFingerprint reference = SweepFingerprint::of(serial);

  const int hardware = exec::resolveWorkerCount(0);
  for (int workers : {2, 7, hardware}) {
    config.parallel.workers = workers;
    const SweepResult parallel = runSweep(config);
    EXPECT_EQ(parallel.requestedWorkers, workers);
    const SweepFingerprint fp = SweepFingerprint::of(parallel);
    EXPECT_EQ(fp.csv, reference.csv)
        << machine.name << ", pool size " << workers
        << (withFaults ? ", with fault plan" : "");
    EXPECT_EQ(fp.faultCounters, reference.faultCounters)
        << machine.name << ", pool size " << workers;
    EXPECT_EQ(parallel.failures.size(), serial.failures.size());
    EXPECT_TRUE(parallel.pendingCoreCounts().empty());
  }
}

TEST(ParallelSweepDeterminism, UmaPresetMatchesSerialBitForBit) {
  expectBitIdenticalAcrossPoolSizes(topology::testUma4(), false);
}

TEST(ParallelSweepDeterminism, NumaPresetMatchesSerialBitForBit) {
  expectBitIdenticalAcrossPoolSizes(topology::testNuma4(), false);
}

TEST(ParallelSweepDeterminism, UmaPresetWithFaultPlanMatchesSerial) {
  expectBitIdenticalAcrossPoolSizes(topology::testUma4(), true);
}

TEST(ParallelSweepDeterminism, NumaPresetWithFaultPlanMatchesSerial) {
  expectBitIdenticalAcrossPoolSizes(topology::testNuma4(), true);
}

TEST(ParallelSweepDeterminism, SweepMatchesRunOnce) {
  // The per-task freshly built workload must equal a standalone run.
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.parallel.workers = 4;
  const SweepResult sweep = runSweep(config);
  const perf::RunProfile solo = runOnce(config.machine, config.workload, 2);
  EXPECT_EQ(sweep.at(2).counters.totalCycles, solo.counters.totalCycles);
  EXPECT_EQ(sweep.at(2).counters.stallCycles, solo.counters.stallCycles);
  EXPECT_EQ(sweep.at(2).makespan, solo.makespan);
}

TEST(ParallelSweepDeterminism, RetriedFailureIsDeterministicToo) {
  // A run that fails on attempt 0 and recovers on the perturbed-seed
  // retry must land on the same retried profile at every pool size.
  auto flakyConfig = [](int workers) {
    SweepConfig config = presetConfig(topology::testNuma4(), false);
    config.parallel.workers = workers;
    config.beforeRun = [](int cores, int attempt) {
      if (cores == 3 && attempt == 0) {
        throw std::runtime_error("flaky 3-core run");
      }
    };
    return config;
  };
  const SweepResult serial = runSweep(flakyConfig(1));
  const SweepResult parallel = runSweep(flakyConfig(4));
  EXPECT_EQ(sweepToCsv(parallel), sweepToCsv(serial));
  ASSERT_EQ(parallel.failures.size(), 1u);
  EXPECT_TRUE(parallel.failures[0].recovered);
  EXPECT_EQ(parallel.failures[0].poolSize, 4);
  EXPECT_EQ(serial.failures[0].poolSize, 1);
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A profile's full wire encoding: equal bytes mean equal profiles.
std::string wireBytes(const perf::RunProfile& profile) {
  std::string out;
  exec::wire::putProfile(out, profile);
  return out;
}

TEST(ParallelSweepDeterminism, PoolStartsNoMoreThreadsThanTasks) {
  // A pool size far above the grid starts one worker per pending task,
  // while the sweep still reports the resolved size and the serial bytes.
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.coreCounts = {1, 2, 4};
  config.parallel.workers = 1;
  const SweepResult serial = runSweep(config);
  config.parallel.workers = 16;
  const SweepResult wide = runSweep(config);
  EXPECT_EQ(wide.requestedWorkers, 16);
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(wide.poolStats.workers.size(), 3u);
  }
  ASSERT_EQ(wide.profiles.size(), serial.profiles.size());
  for (std::size_t i = 0; i < serial.profiles.size(); ++i) {
    EXPECT_EQ(wireBytes(wide.profiles[i]), wireBytes(serial.profiles[i]))
        << "core count " << serial.profiles[i].activeCores;
  }
}

TEST(ParallelSweepCheckpoint, InterruptedSweepResumesToUninterruptedResult) {
  const std::string path = tempPath("occm_parallel_ckpt.bin");
  std::filesystem::remove(path);

  // Reference: one uninterrupted serial sweep, no checkpoint.
  SweepConfig reference = presetConfig(topology::testNuma4(), false);
  reference.parallel.workers = 1;
  const SweepResult whole = runSweep(reference);

  // Interrupted parallel sweep: the 3-core task dies on every attempt, so
  // its run is missing from the merge while its siblings checkpoint.
  SweepConfig interrupted = presetConfig(topology::testNuma4(), false);
  interrupted.parallel.workers = 4;
  interrupted.checkpointPath = path;
  interrupted.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 3) {
      throw std::runtime_error("mid-flight interruption");
    }
  };
  const SweepResult partial = runSweep(interrupted);
  EXPECT_EQ(partial.profiles.size(), 3u);
  EXPECT_EQ(partial.pendingCoreCounts(), std::vector<int>{3});
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resume without the interruption: completed runs restore, the missing
  // core count simulates, and the merged result equals the uninterrupted
  // run on every model-relevant quantity.
  SweepConfig resume = presetConfig(topology::testNuma4(), false);
  resume.parallel.workers = 4;
  resume.checkpointPath = path;
  const SweepResult merged = runSweep(resume);
  EXPECT_EQ(merged.restoredRuns, 3u);
  ASSERT_EQ(merged.profiles.size(), 4u);
  EXPECT_TRUE(merged.pendingCoreCounts().empty());
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(merged.at(n).counters.totalCycles,
              whole.at(n).counters.totalCycles)
        << "n = " << n;
    EXPECT_EQ(merged.at(n).counters.stallCycles,
              whole.at(n).counters.stallCycles)
        << "n = " << n;
    EXPECT_EQ(merged.at(n).makespan, whole.at(n).makespan) << "n = " << n;
    EXPECT_EQ(wireBytes(merged.at(n)), wireBytes(whole.at(n))) << "n = " << n;
  }

  std::filesystem::remove(path);
}

TEST(ParallelSweepCheckpoint, FinalCheckpointFileIsPoolSizeInvariant) {
  const std::string serialPath = tempPath("occm_ckpt_serial.bin");
  const std::string parallelPath = tempPath("occm_ckpt_parallel.bin");
  std::filesystem::remove(serialPath);
  std::filesystem::remove(parallelPath);

  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.parallel.workers = 1;
  config.checkpointPath = serialPath;
  (void)runSweep(config);
  config.parallel.workers = 4;
  config.checkpointPath = parallelPath;
  (void)runSweep(config);

  const auto serialCkpt = SweepCheckpoint::loadChecked(serialPath);
  const auto parallelCkpt = SweepCheckpoint::loadChecked(parallelPath);
  ASSERT_TRUE(serialCkpt.hasValue()) << serialCkpt.error().message();
  ASSERT_TRUE(parallelCkpt.hasValue()) << parallelCkpt.error().message();
  EXPECT_EQ(parallelCkpt->encode(), serialCkpt->encode());

  std::filesystem::remove(serialPath);
  std::filesystem::remove(parallelPath);
}

TEST(ParallelSweepDiagnostics, MissingRunNamesPoolSizeAndPendingCores) {
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.parallel.workers = 2;
  config.maxAttempts = 1;
  config.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 2 || cores == 4) {
      throw std::runtime_error("cursed core count");
    }
  };
  const SweepResult sweep = runSweep(config);
  ASSERT_EQ(sweep.failures.size(), 2u);
  EXPECT_EQ(sweep.failures[0].poolSize, 2);
  EXPECT_EQ(sweep.pendingCoreCounts(), (std::vector<int>{2, 4}));

  try {
    (void)sweep.at(2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("core counts present: 1, 3"), std::string::npos)
        << what;
    EXPECT_NE(what.find("still pending: 2, 4"), std::string::npos) << what;
    EXPECT_NE(what.find("pool size 2"), std::string::npos) << what;
  }

  // omegas() on a sweep without its 1-core anchor reports the same way.
  SweepConfig noAnchor = presetConfig(topology::testNuma4(), false);
  noAnchor.parallel.workers = 2;
  noAnchor.coreCounts = {2, 3};
  const SweepResult anchorless = runSweep(noAnchor);
  try {
    (void)anchorless.omegas();
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1-core"), std::string::npos);
  }

  // Diagnostics summarize the same facts for humans.
  const std::string report = sweep.diagnostics();
  EXPECT_NE(report.find("pool size 2"), std::string::npos) << report;
  EXPECT_NE(report.find("still pending: 2, 4"), std::string::npos) << report;
}

TEST(ParallelSweepDiagnostics, BeforeRunSeesEveryCoreCountOnce) {
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.parallel.workers = 4;
  std::atomic<int> calls{0};
  std::atomic<int> coreSum{0};
  config.beforeRun = [&](int cores, int attempt) {
    calls.fetch_add(1);
    if (attempt == 0) {
      coreSum.fetch_add(cores);
    }
  };
  (void)runSweep(config);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(coreSum.load(), 1 + 2 + 3 + 4);
}

}  // namespace
}  // namespace occm::analysis
