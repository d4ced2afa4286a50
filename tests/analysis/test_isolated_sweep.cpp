// Process-isolated sweep tests: with SweepConfig::isolation enabled,
// successful runs must be bit-identical to the in-process path at every
// pool size (with and without a FaultPlan), injected crashes must be
// contained as RunFailure{kind = crash} while sibling runs complete and
// checkpoint, a crash-then-resume cycle must converge to the
// uninterrupted result, and cycle budgets and wall deadlines classify as
// timeouts across the fork — the acceptance criteria of the
// crash-containment mode.
//
// Skipped under ThreadSanitizer: fork() from a process whose pool
// threads hold tsan-runtime locks can deadlock the child inside the
// sanitizer, which is a property of the harness, not the code under test.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/error.hpp"
#include "exec/wire_codec.hpp"
#include "fault/crash_injection.hpp"
#include "topology/presets.hpp"

#if defined(__SANITIZE_THREAD__)
#define OCCM_UNDER_TSAN 1
#endif
#if !defined(OCCM_UNDER_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCCM_UNDER_TSAN 1
#endif
#endif
#ifndef OCCM_UNDER_TSAN
#define OCCM_UNDER_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define OCCM_UNDER_ASAN 1
#endif
#if !defined(OCCM_UNDER_ASAN) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OCCM_UNDER_ASAN 1
#endif
#endif
#ifndef OCCM_UNDER_ASAN
#define OCCM_UNDER_ASAN 0
#endif

#if OCCM_UNDER_TSAN
#define OCCM_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based isolation is not exercised under tsan"
#else
#define OCCM_SKIP_UNDER_TSAN() static_cast<void>(0)
#endif

namespace occm::analysis {
namespace {

/// Same preset the parallel-sweep determinism suite uses, so the two
/// suites pin the same contract from both sides.
SweepConfig presetConfig(const topology::MachineSpec& machine,
                         bool withFaults) {
  SweepConfig config;
  config.machine = machine;
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  if (withFaults) {
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

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A profile's full wire encoding: equal bytes mean equal profiles.
std::string wireBytes(const perf::RunProfile& profile) {
  std::string out;
  exec::wire::putProfile(out, profile);
  return out;
}

void expectIsolatedMatchesInProcess(const topology::MachineSpec& machine,
                                    bool withFaults) {
  SweepConfig reference = presetConfig(machine, withFaults);
  reference.parallel.workers = 1;
  const SweepFingerprint inProcess =
      SweepFingerprint::of(runSweep(reference));

  for (int workers : {1, 4}) {
    SweepConfig isolated = presetConfig(machine, withFaults);
    isolated.parallel.workers = workers;
    isolated.isolation.enabled = true;
    const SweepResult sweep = runSweep(isolated);
    EXPECT_TRUE(sweep.failures.empty()) << sweep.diagnostics();
    const SweepFingerprint fp = SweepFingerprint::of(sweep);
    EXPECT_EQ(fp.csv, inProcess.csv)
        << machine.name << ", isolated pool size " << workers
        << (withFaults ? ", with fault plan" : "");
    EXPECT_EQ(fp.faultCounters, inProcess.faultCounters)
        << machine.name << ", isolated pool size " << workers;
  }
}

TEST(IsolatedSweepDeterminism, UmaPresetMatchesInProcessBitForBit) {
  OCCM_SKIP_UNDER_TSAN();
  expectIsolatedMatchesInProcess(topology::testUma4(), false);
}

TEST(IsolatedSweepDeterminism, NumaPresetMatchesInProcessBitForBit) {
  OCCM_SKIP_UNDER_TSAN();
  expectIsolatedMatchesInProcess(topology::testNuma4(), false);
}

TEST(IsolatedSweepDeterminism, NumaPresetWithFaultPlanMatchesInProcess) {
  OCCM_SKIP_UNDER_TSAN();
  expectIsolatedMatchesInProcess(topology::testNuma4(), true);
}

TEST(IsolatedSweepCrash, InjectedCrashIsContainedToItsCoreCount) {
  OCCM_SKIP_UNDER_TSAN();
  // Reference: the same sweep with no crash event.
  SweepConfig reference = presetConfig(topology::testNuma4(), false);
  reference.parallel.workers = 1;
  const SweepResult healthy = runSweep(reference);

  for (int workers : {1, 4}) {
    SweepConfig config = presetConfig(topology::testNuma4(), false);
    config.parallel.workers = workers;
    config.isolation.enabled = true;
    // Deterministic abort at cycle 20k, only when 3 cores are active:
    // both attempts of the 3-core run die the same way, every other run
    // never sees the event.
    config.sim.faultPlan.crashAbort(20'000, 3);
    const SweepResult sweep = runSweep(config);

    ASSERT_EQ(sweep.failures.size(), 1u) << sweep.diagnostics();
    const RunFailure& crash = sweep.failures[0];
    EXPECT_EQ(crash.cores, 3);
    EXPECT_EQ(crash.kind, RunFailureKind::kCrash);
    EXPECT_FALSE(crash.recovered);
    EXPECT_EQ(crash.attempts, 2);  // retried, crashed again
    EXPECT_EQ(crash.poolSize, workers);
#if !OCCM_UNDER_ASAN
    EXPECT_EQ(crash.signal, SIGABRT) << crash.error;
#endif
    // The child's dying words reach the failure record.
    EXPECT_NE(crash.stderrTail.find("injected crash"), std::string::npos)
        << crash.stderrTail;
    EXPECT_EQ(sweep.pendingCoreCounts(), std::vector<int>{3});

    // Survivors are bit-identical to the healthy sweep.
    for (int n : {1, 2, 4}) {
      EXPECT_EQ(sweep.at(n).counters.totalCycles,
                healthy.at(n).counters.totalCycles)
          << "n = " << n << ", pool " << workers;
      EXPECT_EQ(sweep.at(n).makespan, healthy.at(n).makespan)
          << "n = " << n << ", pool " << workers;
    }
  }
}

TEST(IsolatedSweepCrash, SegvInjectionIsContainedToo) {
  OCCM_SKIP_UNDER_TSAN();
  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.parallel.workers = 1;
  config.maxAttempts = 1;
  config.isolation.enabled = true;
  config.sim.faultPlan.crashSegv(20'000, 2);
  const SweepResult sweep = runSweep(config);
  ASSERT_EQ(sweep.failures.size(), 1u) << sweep.diagnostics();
  EXPECT_EQ(sweep.failures[0].cores, 2);
  EXPECT_EQ(sweep.failures[0].kind, RunFailureKind::kCrash);
#if !OCCM_UNDER_ASAN
  // asan intercepts SIGSEGV and exits instead; the bare signal is only
  // observable on an uninstrumented build.
  EXPECT_EQ(sweep.failures[0].signal, SIGSEGV) << sweep.failures[0].error;
#endif
  EXPECT_EQ(sweep.pendingCoreCounts(), std::vector<int>{2});
}

TEST(IsolatedSweepCrash, OomInjectionClassifiesAsAddressSpace) {
  OCCM_SKIP_UNDER_TSAN();
#if OCCM_UNDER_ASAN
  GTEST_SKIP() << "RLIMIT_AS fights asan shadow mappings";
#else
  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.parallel.workers = 1;
  config.maxAttempts = 1;
  config.isolation.enabled = true;
  // The memory budget is what turns the injected allocation storm into a
  // prompt, classified death instead of a machine-wide OOM.
  config.isolation.memoryBytes = std::uint64_t{512} << 20;
  config.sim.faultPlan.crashOom(20'000, 2);
  const SweepResult sweep = runSweep(config);
  ASSERT_EQ(sweep.failures.size(), 1u) << sweep.diagnostics();
  EXPECT_EQ(sweep.failures[0].cores, 2);
  EXPECT_EQ(sweep.failures[0].kind, RunFailureKind::kCrash);
  EXPECT_EQ(sweep.failures[0].rlimit, "address-space")
      << sweep.failures[0].error;
  EXPECT_NE(
      sweep.failures[0].stderrTail.find(fault::kOutOfMemoryMarker),
      std::string::npos)
      << sweep.failures[0].stderrTail;
#endif
}

void expectCrashThenResumeConverges(bool withFaults, int workers) {
  const std::string path = tempPath(
      "occm_isolated_resume_" + std::to_string(withFaults) + "_" +
      std::to_string(workers) + ".bin");
  std::filesystem::remove(path);

  // Reference: uninterrupted in-process sweep, no crash, no checkpoint.
  SweepConfig reference = presetConfig(topology::testNuma4(), withFaults);
  reference.parallel.workers = 1;
  const SweepResult whole = runSweep(reference);

  // Crashing sweep: the 3-core run dies on every attempt; its siblings
  // complete and checkpoint.
  SweepConfig crashing = presetConfig(topology::testNuma4(), withFaults);
  crashing.parallel.workers = workers;
  crashing.isolation.enabled = true;
  crashing.checkpointPath = path;
  crashing.sim.faultPlan.crashAbort(20'000, 3);
  const SweepResult partial = runSweep(crashing);
  EXPECT_EQ(partial.profiles.size(), 3u) << partial.diagnostics();
  ASSERT_EQ(partial.failures.size(), 1u);
  EXPECT_EQ(partial.failures[0].kind, RunFailureKind::kCrash);
  ASSERT_TRUE(std::filesystem::exists(path));

  // The crash record is persisted with its forensics, exactly like an
  // exception record — resumable evidence, not a lifecycle footnote.
  const auto ckpt = SweepCheckpoint::loadChecked(path);
  ASSERT_TRUE(ckpt.hasValue()) << ckpt.error().message();
  ASSERT_EQ(ckpt->outcomes.count(3), 1u);
  const exec::RunOutcome& crashed = ckpt->outcomes.at(3);
  EXPECT_FALSE(crashed.profile.has_value());
  ASSERT_TRUE(crashed.failure.has_value());
  EXPECT_EQ(crashed.failure->kind, RunFailureKind::kCrash);
  EXPECT_EQ(crashed.failure->cores, 3);
  EXPECT_FALSE(crashed.failure->stderrTail.empty());

  // Resume without the crash event ("the bug was fixed"): completed runs
  // restore, the crashed core count simulates, and the merge equals the
  // uninterrupted sweep on every model-relevant quantity.
  SweepConfig resume = presetConfig(topology::testNuma4(), withFaults);
  resume.parallel.workers = workers;
  resume.isolation.enabled = true;
  resume.checkpointPath = path;
  const SweepResult merged = runSweep(resume);
  EXPECT_EQ(merged.restoredRuns, 3u) << merged.diagnostics();
  ASSERT_EQ(merged.profiles.size(), 4u);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(merged.at(n).counters.totalCycles,
              whole.at(n).counters.totalCycles)
        << "n = " << n << ", pool " << workers
        << (withFaults ? ", with fault plan" : "");
    EXPECT_EQ(merged.at(n).counters.stallCycles,
              whole.at(n).counters.stallCycles)
        << "n = " << n;
    EXPECT_EQ(merged.at(n).makespan, whole.at(n).makespan) << "n = " << n;
    // Restored or re-simulated, each profile equals the in-process one in
    // full.
    EXPECT_EQ(wireBytes(merged.at(n)), wireBytes(whole.at(n))) << "n = " << n;
  }

  std::filesystem::remove(path);
}

TEST(IsolatedSweepResume, CrashThenResumeConvergesSerial) {
  OCCM_SKIP_UNDER_TSAN();
  expectCrashThenResumeConverges(false, 1);
}

TEST(IsolatedSweepResume, CrashThenResumeConvergesPooled) {
  OCCM_SKIP_UNDER_TSAN();
  expectCrashThenResumeConverges(false, 4);
}

TEST(IsolatedSweepResume, CrashThenResumeConvergesWithFaultPlan) {
  OCCM_SKIP_UNDER_TSAN();
  expectCrashThenResumeConverges(true, 1);
  expectCrashThenResumeConverges(true, 4);
}

TEST(IsolatedSweepResume, RepeatedCrashesKeepOneRecordPerCoreCount) {
  OCCM_SKIP_UNDER_TSAN();
  // The 3-core run crashes on every attempt of every invocation. Each
  // resume restores the three completed runs, re-attempts n = 3 and
  // settles it with the same crash, which replaces the earlier record
  // instead of piling up beside it: the file does not change.
  const std::string path = tempPath("occm_isolated_crash_pileup.bin");
  std::filesystem::remove(path);
  SweepConfig crashing = presetConfig(topology::testNuma4(), false);
  crashing.parallel.workers = 1;
  crashing.isolation.enabled = true;
  crashing.checkpointPath = path;
  crashing.sim.faultPlan.crashAbort(20'000, 3);
  (void)runSweep(crashing);
  const auto readFile = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  std::string before = readFile();
  ASSERT_FALSE(before.empty());
  for (int resume = 1; resume <= 3; ++resume) {
    const SweepResult sweep = runSweep(crashing);
    EXPECT_EQ(sweep.restoredRuns, 3u) << "resume " << resume;
    const auto ckpt = SweepCheckpoint::loadChecked(path);
    ASSERT_TRUE(ckpt.hasValue()) << ckpt.error().message();
    ASSERT_EQ(ckpt->outcomes.size(), 4u) << "resume " << resume;
    const exec::RunOutcome& crashed = ckpt->outcomes.at(3);
    ASSERT_TRUE(crashed.failure.has_value()) << "resume " << resume;
    EXPECT_EQ(crashed.failure->kind, RunFailureKind::kCrash);
    EXPECT_FALSE(crashed.profile.has_value());
    const std::string after = readFile();
    EXPECT_EQ(after, before) << "resume " << resume;
    before = after;
  }
  std::filesystem::remove(path);
}

TEST(IsolatedSweepLifecycle, CycleBudgetClassifiesAsTimeoutAcrossTheFork) {
  OCCM_SKIP_UNDER_TSAN();
  // The deterministic budget aborts *inside* the child; the supervisor
  // must ship the RunAborted back and the sweep must classify it exactly
  // like the in-process path: timeout, terminal, not checkpointed.
  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.parallel.workers = 1;
  config.isolation.enabled = true;
  config.limits.cycleBudget = 1'000;
  const SweepResult sweep = runSweep(config);
  EXPECT_TRUE(sweep.profiles.empty());
  ASSERT_EQ(sweep.failures.size(), 4u) << sweep.diagnostics();
  for (const RunFailure& f : sweep.failures) {
    EXPECT_EQ(f.kind, RunFailureKind::kTimeout) << f.error;
    EXPECT_EQ(f.attempts, 1);
  }
}

TEST(IsolatedSweepLifecycle, WallDeadlineKillsChildAsTimeout) {
  OCCM_SKIP_UNDER_TSAN();
  // The wall deadline reaches the supervisor only through the attempt's
  // token: the 2-core attempt stalls in the parent's beforeRun well past
  // the deadline, so the supervisor finds the token stopped and SIGKILLs
  // the child — classified as a timeout, not a sweep-wide cancel. EP.S
  // keeps every healthy run far inside the deadline, sanitizers included.
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.workload.program = workloads::Program::kEP;
  config.parallel.workers = 1;
  config.isolation.enabled = true;
  config.limits.wallSeconds = 3.0;
  config.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(4500));
    }
  };
  const SweepResult sweep = runSweep(config);
  EXPECT_FALSE(sweep.stopped);
  ASSERT_EQ(sweep.failures.size(), 1u) << sweep.diagnostics();
  EXPECT_EQ(sweep.failures[0].cores, 2);
  EXPECT_EQ(sweep.failures[0].kind, RunFailureKind::kTimeout)
      << sweep.failures[0].error;
  EXPECT_EQ(sweep.failures[0].attempts, 1);
  EXPECT_EQ(sweep.profiles.size(), 3u);
  EXPECT_EQ(sweep.pendingCoreCounts(), std::vector<int>{2});
}

TEST(IsolatedSweepLifecycle, CrashPlanWithoutIsolationIsRefused) {
  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.sim.faultPlan.crashAbort(20'000);
  EXPECT_THROW((void)runSweep(config), ContractViolation);
}

}  // namespace
}  // namespace occm::analysis
