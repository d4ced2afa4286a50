// Distributed sweep end-to-end over loopback TCP, all in-process: a
// coordinator inside runSweep shards the grid across worker threads, one
// of which leaves mid-sweep (maxTasks) and one of which straggles — and
// the merged CSV must be byte-identical to the serial in-process sweep.
// Also: graceful degradation when no worker shows up, checkpoint resume
// through the fleet, and the worker-side job runner's rejection paths.

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/distributed_sweep.hpp"
#include "analysis/experiment.hpp"
#include "exec/wire_codec.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

SweepConfig baseConfig() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  return config;
}

/// Serial in-process reference: the bytes every fleet topology must hit.
std::string serialCsv() {
  SweepConfig config = baseConfig();
  config.parallel.workers = 1;
  return sweepToCsv(runSweep(config));
}

/// A profile's full wire encoding: equal bytes mean equal profiles.
std::string wireBytes(const perf::RunProfile& profile) {
  std::string out;
  exec::wire::putProfile(out, profile);
  return out;
}

struct WorkerThread {
  std::thread thread;
  exec::dist::WorkerReport report;
};

/// Launches `runSweepWorker` threads that wait for the coordinator's
/// bound port, then runs the distributed sweep on the calling thread.
SweepResult runFleetSweep(SweepConfig config,
                          std::vector<SweepWorkerOptions> workerOptions,
                          std::vector<exec::dist::WorkerReport>* reports) {
  auto port = std::make_shared<std::promise<int>>();
  std::shared_future<int> portReady(port->get_future());
  config.distributed.listen = true;
  config.distributed.port = 0;
  config.distributed.onListening = [port](int boundPort) {
    port->set_value(boundPort);
  };
  std::vector<WorkerThread> workers(workerOptions.size());
  for (std::size_t i = 0; i < workerOptions.size(); ++i) {
    workers[i].thread = std::thread([&workers, &workerOptions, portReady, i] {
      SweepWorkerOptions options = workerOptions[i];
      options.port = portReady.get();
      workers[i].report = runSweepWorker(options);
    });
  }
  const SweepResult sweep = runSweep(config);
  for (WorkerThread& worker : workers) {
    worker.thread.join();
    if (reports != nullptr) {
      reports->push_back(worker.report);
    }
  }
  return sweep;
}

TEST(DistributedSweep, FleetWithDeathAndStragglerMatchesSerialBitForBit) {
  const std::string reference = serialCsv();

  SweepConfig config = baseConfig();
  config.parallel.workers = 1;
  config.distributed.graceWindowSeconds = 30.0;

  std::vector<SweepWorkerOptions> fleet(3);
  fleet[0].workerId = "steady";
  fleet[1].workerId = "deserter";
  fleet[1].maxTasks = 1;  // completes one task, then vanishes mid-fleet
  fleet[2].workerId = "straggler";
  fleet[2].straggleMs = 80;  // late results, possibly after re-dispatch

  std::vector<exec::dist::WorkerReport> reports;
  const SweepResult sweep = runFleetSweep(config, fleet, &reports);

  EXPECT_EQ(sweepToCsv(sweep), reference);
  EXPECT_TRUE(sweep.pendingCoreCounts().empty());
  EXPECT_TRUE(sweep.dist.used);
  EXPECT_EQ(sweep.dist.workersSeen, 3u);
  EXPECT_GE(sweep.dist.fleetCompleted + sweep.restoredRuns, 1u);
  ASSERT_EQ(reports.size(), 3u);
  std::uint64_t fleetTasks = 0;
  for (const exec::dist::WorkerReport& report : reports) {
    fleetTasks += report.tasksCompleted;
  }
  // Every task ran somewhere (>= because duplicates are legal).
  EXPECT_GE(fleetTasks, sweep.dist.fleetCompleted);
}

TEST(DistributedSweep, SingleWorkerFleetMatchesSerial) {
  const std::string reference = serialCsv();
  SweepConfig config = baseConfig();
  config.parallel.workers = 1;
  config.distributed.graceWindowSeconds = 30.0;
  std::vector<SweepWorkerOptions> fleet(1);
  fleet[0].workerId = "solo";
  std::vector<exec::dist::WorkerReport> reports;
  const SweepResult sweep = runFleetSweep(config, fleet, &reports);
  EXPECT_EQ(sweepToCsv(sweep), reference);
  EXPECT_EQ(sweep.dist.fleetCompleted, 4u);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok) << reports[0].stopReason;
  EXPECT_EQ(reports[0].stopReason, "shutdown");
  EXPECT_EQ(reports[0].tasksCompleted, 4u);
}

TEST(DistributedSweep, NoWorkersDegradesToLocalAndStillMatchesSerial) {
  const std::string reference = serialCsv();
  SweepConfig config = baseConfig();
  config.parallel.workers = 1;
  config.distributed.listen = true;
  config.distributed.port = 0;
  config.distributed.graceWindowSeconds = 0.05;  // give up almost at once
  const SweepResult sweep = runSweep(config);
  EXPECT_EQ(sweepToCsv(sweep), reference);
  EXPECT_TRUE(sweep.dist.used);
  EXPECT_TRUE(sweep.dist.degradedToLocal);
  EXPECT_EQ(sweep.dist.workersSeen, 0u);
  EXPECT_EQ(sweep.dist.fleetCompleted, 0u);
  EXPECT_TRUE(sweep.pendingCoreCounts().empty());
}

TEST(DistributedSweep, ResumesFromCheckpointThroughTheFleet) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "occm_dist_ckpt.bin")
          .string();
  std::filesystem::remove(path);

  // Uninterrupted serial reference.
  SweepConfig reference = baseConfig();
  reference.parallel.workers = 1;
  const SweepResult whole = runSweep(reference);

  // Interrupted local sweep: the 3-core task fails every attempt, its
  // siblings checkpoint (exactly the state after a coordinator crash).
  SweepConfig interrupted = baseConfig();
  interrupted.parallel.workers = 1;
  interrupted.checkpointPath = path;
  interrupted.maxAttempts = 1;
  interrupted.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 3) {
      throw std::runtime_error("interrupted before the fleet era");
    }
  };
  const SweepResult partial = runSweep(interrupted);
  ASSERT_EQ(partial.profiles.size(), 3u);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resume distributed: restored tasks are never dispatched; the fleet
  // runs only the missing core count; bytes match the uninterrupted run.
  SweepConfig resume = baseConfig();
  resume.parallel.workers = 1;
  resume.checkpointPath = path;
  resume.distributed.graceWindowSeconds = 30.0;
  std::vector<SweepWorkerOptions> fleet(1);
  fleet[0].workerId = "resumer";
  const SweepResult merged = runFleetSweep(resume, fleet, nullptr);
  EXPECT_EQ(merged.restoredRuns, 3u);
  EXPECT_EQ(merged.dist.fleetCompleted, 1u);
  ASSERT_EQ(merged.profiles.size(), 4u);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(merged.at(n).counters.totalCycles,
              whole.at(n).counters.totalCycles)
        << "n = " << n;
    EXPECT_EQ(merged.at(n).makespan, whole.at(n).makespan) << "n = " << n;
    EXPECT_EQ(wireBytes(merged.at(n)), wireBytes(whole.at(n))) << "n = " << n;
  }
  std::filesystem::remove(path);
}

TEST(DistributedSweep, JobRunnerMatchesRunOnceBitForBit) {
  // The worker-side runner must be the same computation as the local
  // path: a JobSpec round trip may not perturb a single counter.
  SweepConfig config = baseConfig();
  const exec::dist::JobSpec job = makeJobSpec(config, config.workload, 2, 9);
  const exec::dist::TaskResult result = runSweepJob(job, IsolationConfig{});
  ASSERT_TRUE(result.outcome.profile.has_value());
  EXPECT_FALSE(result.outcome.failure.has_value());
  EXPECT_EQ(result.taskId, 9u);
  const perf::RunProfile& profile = *result.outcome.profile;
  const perf::RunProfile solo = runOnce(config.machine, config.workload, 2);
  EXPECT_EQ(profile.counters.totalCycles, solo.counters.totalCycles);
  EXPECT_EQ(profile.counters.stallCycles, solo.counters.stallCycles);
  EXPECT_EQ(profile.makespan, solo.makespan);
}

TEST(DistributedSweep, MalformedJobsFailSoftlyInsteadOfThrowing) {
  SweepConfig config = baseConfig();
  exec::dist::JobSpec job = makeJobSpec(config, config.workload, 2, 0);

  exec::dist::JobSpec badProgram = job;
  badProgram.program = "NOT_A_PROGRAM";
  exec::dist::TaskResult result = runSweepJob(badProgram, IsolationConfig{});
  EXPECT_FALSE(result.outcome.profile.has_value());
  ASSERT_TRUE(result.outcome.failure.has_value());
  EXPECT_EQ(result.outcome.failure->kind, RunFailureKind::kException);
  EXPECT_NE(result.outcome.failure->error.find("NOT_A_PROGRAM"),
            std::string::npos);

  exec::dist::JobSpec badClass = job;
  badClass.problemClass = "Z9";
  result = runSweepJob(badClass, IsolationConfig{});
  EXPECT_FALSE(result.outcome.profile.has_value());
  ASSERT_TRUE(result.outcome.failure.has_value());

  exec::dist::JobSpec badPlan = job;
  badPlan.faultPlanJson = "{not json";
  result = runSweepJob(badPlan, IsolationConfig{});
  EXPECT_FALSE(result.outcome.profile.has_value());
  ASSERT_TRUE(result.outcome.failure.has_value());
  EXPECT_EQ(result.outcome.failure->kind, RunFailureKind::kException);

  exec::dist::JobSpec badCores = job;
  badCores.cores = 0;
  result = runSweepJob(badCores, IsolationConfig{});
  EXPECT_FALSE(result.outcome.profile.has_value());
  ASSERT_TRUE(result.outcome.failure.has_value());
}

}  // namespace
}  // namespace occm::analysis
