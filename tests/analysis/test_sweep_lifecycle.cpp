// Sweep lifecycle tests: cycle budgets and wall deadlines convert
// overrunning runs into RunFailure{kind = kTimeout} while the rest of
// the sweep completes deterministically; whole-sweep graceful stop
// flushes a valid checkpoint and resumes to the uninterrupted result; a
// checkpoint killed mid-write at any byte boundary quarantines and the
// resumed sweep is bit-identical to an uninterrupted one, for pool sizes
// {1, 4}, with and without a FaultPlan.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/cancellation.hpp"
#include "exec/wire_codec.hpp"
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

/// The determinism contract's fingerprint: CSV bytes + fault counters.
struct SweepFingerprint {
  std::string csv;
  std::vector<std::uint64_t> faultCounters;

  bool operator==(const SweepFingerprint& other) const {
    return csv == other.csv && faultCounters == other.faultCounters;
  }

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

/// Every profile of `merged` equals its uninterrupted twin in full — the
/// restored ones included, down to perCore and controllerStats.
void expectProfilesIdentical(const SweepResult& merged,
                             const SweepResult& whole) {
  ASSERT_EQ(merged.profiles.size(), whole.profiles.size());
  for (const perf::RunProfile& p : merged.profiles) {
    EXPECT_EQ(wireBytes(p), wireBytes(whole.at(p.activeCores)))
        << "n = " << p.activeCores;
  }
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

TEST(SweepLifecycle, CycleBudgetConvertsOverrunToTimeoutDeterministically) {
  // Measure the unbudgeted sweep first, then pick a budget that the
  // 1-core run (longest makespan: 4 threads time-share one core) exceeds
  // while every other run fits.
  SweepConfig reference = presetConfig(topology::testNuma4(), false);
  reference.parallel.workers = 1;
  const SweepResult whole = runSweep(reference);
  ASSERT_EQ(whole.profiles.size(), 4u);
  const Cycles longest = whole.at(1).makespan;
  const Cycles second = whole.at(2).makespan;
  ASSERT_GT(longest, second);
  const Cycles budget = second + (longest - second) / 2;

  SweepResult serial;
  for (int workers : {1, 4}) {
    SweepConfig config = presetConfig(topology::testNuma4(), false);
    config.parallel.workers = workers;
    config.limits.cycleBudget = budget;
    const SweepResult sweep = runSweep(config);
    EXPECT_FALSE(sweep.stopped);
    ASSERT_EQ(sweep.failures.size(), 1u) << "pool size " << workers;
    EXPECT_EQ(sweep.failures[0].cores, 1);
    EXPECT_EQ(sweep.failures[0].kind, RunFailureKind::kTimeout);
    EXPECT_EQ(sweep.failures[0].attempts, 1);  // timeouts are not retried
    EXPECT_FALSE(sweep.failures[0].recovered);
    EXPECT_EQ(sweep.pendingCoreCounts(), std::vector<int>{1});
    // The completed subset is bit-identical to the uninterrupted run.
    for (int n = 2; n <= 4; ++n) {
      EXPECT_EQ(sweep.at(n).counters.totalCycles,
                whole.at(n).counters.totalCycles)
          << "n = " << n << ", pool size " << workers;
      EXPECT_EQ(sweep.at(n).makespan, whole.at(n).makespan);
    }
    if (workers == 1) {
      serial = sweep;
    } else {
      // Deterministic abort: same budget, same abort event, same message
      // — regardless of pool size.
      EXPECT_EQ(sweep.failures[0].error, serial.failures[0].error);
      EXPECT_EQ(SweepFingerprint::of(sweep), SweepFingerprint::of(serial));
    }
  }
}

TEST(SweepLifecycle, WallDeadlineMarksOverrunningRunAsTimeout) {
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.parallel.workers = 1;
  // EP.S, not CG.S: a healthy run must finish far inside the deadline
  // even under sanitizers (a CG.S run there takes about 3 s), while
  // the 2-core attempt stalls well past it inside beforeRun — by the time
  // that run reaches the simulator's first cancellation point, the
  // deadline its token carries has long since expired. No tight timing
  // on either side.
  config.workload.program = workloads::Program::kEP;
  config.limits.wallSeconds = 3.0;
  config.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(4500));
    }
  };
  const SweepResult sweep = runSweep(config);
  EXPECT_FALSE(sweep.stopped);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].cores, 2);
  EXPECT_EQ(sweep.failures[0].kind, RunFailureKind::kTimeout);
  EXPECT_EQ(sweep.failures[0].attempts, 1);
  EXPECT_EQ(sweep.pendingCoreCounts(), std::vector<int>{2});
  EXPECT_EQ(sweep.profiles.size(), 3u);
  EXPECT_NE(sweep.diagnostics().find("[timeout]"), std::string::npos)
      << sweep.diagnostics();
}

TEST(SweepLifecycle, HugeWallDeadlineNeverFires) {
  // 1e10 s is past the steady clock's nanosecond range: the deadline must
  // saturate (never expire), not overflow into an already-expired one.
  SweepConfig config = presetConfig(topology::testNuma4(), false);
  config.parallel.workers = 1;
  config.limits.wallSeconds = 1e10;
  const SweepResult sweep = runSweep(config);
  EXPECT_FALSE(sweep.stopped);
  EXPECT_TRUE(sweep.failures.empty()) << sweep.diagnostics();
  EXPECT_EQ(sweep.profiles.size(), 4u);
}

TEST(SweepLifecycle, GracefulStopFlushesCheckpointAndResumes) {
  const std::string path = tempPath("occm_lifecycle_stop.bin");
  std::filesystem::remove(path);

  SweepConfig reference = presetConfig(topology::testNuma4(), false);
  reference.parallel.workers = 1;
  const SweepResult whole = runSweep(reference);
  const SweepFingerprint wholeFp = SweepFingerprint::of(whole);

  // Serial sweep, stop requested during the 3-core run's beforeRun; the
  // run polls the sweep token directly, so the 3-core attempt aborts at
  // its first cancellation point.
  CancellationSource stop;
  SweepConfig interrupted = presetConfig(topology::testNuma4(), false);
  interrupted.parallel.workers = 1;
  interrupted.checkpointPath = path;
  interrupted.cancel = stop.token();
  interrupted.beforeRun = [&stop](int cores, int /*attempt*/) {
    if (cores == 3) {
      stop.requestStop();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  };
  const SweepResult partial = runSweep(interrupted);
  EXPECT_TRUE(partial.stopped);
  EXPECT_EQ(partial.profiles.size(), 2u);  // cores 1 and 2 completed
  ASSERT_EQ(partial.failures.size(), 1u);
  EXPECT_EQ(partial.failures[0].cores, 3);
  EXPECT_EQ(partial.failures[0].kind, RunFailureKind::kCancelled);
  // Core 4 was never started: pending, with no failure record.
  EXPECT_EQ(partial.pendingCoreCounts(), (std::vector<int>{3, 4}));
  EXPECT_NE(partial.diagnostics().find("stopped early"), std::string::npos);

  // The flushed checkpoint is valid, carries the completed runs, and
  // holds no lifecycle failure records (a resume should re-attempt).
  const auto flushed = SweepCheckpoint::loadChecked(path);
  ASSERT_TRUE(flushed.hasValue()) << flushed.error().message();
  EXPECT_EQ(flushed->outcomes.size(), 2u);
  for (const auto& [cores, outcome] : flushed->outcomes) {
    EXPECT_TRUE(outcome.profile.has_value()) << "n = " << cores;
    EXPECT_FALSE(outcome.failure.has_value()) << "n = " << cores;
  }

  // Resume without the stop: restores 2 runs, simulates the rest, and
  // lands bit-identical to the uninterrupted sweep.
  SweepConfig resume = presetConfig(topology::testNuma4(), false);
  resume.parallel.workers = 1;
  resume.checkpointPath = path;
  const SweepResult merged = runSweep(resume);
  EXPECT_FALSE(merged.stopped);
  EXPECT_EQ(merged.restoredRuns, 2u);
  EXPECT_EQ(SweepFingerprint::of(merged), wholeFp);
  expectProfilesIdentical(merged, whole);

  std::filesystem::remove(path);
}

TEST(SweepLifecycle, MidWriteKillResumesByteIdentical) {
  // Acceptance criterion: a checkpoint truncated at any byte boundary
  // (the observable state after a mid-write kill of a non-atomic writer,
  // or of the file itself) must quarantine and resume to output
  // byte-identical to an uninterrupted sweep — pools {1, 4}, with and
  // without a FaultPlan.
  for (const bool withFaults : {false, true}) {
    for (const int workers : {1, 4}) {
      SweepConfig reference = presetConfig(topology::testUma4(), withFaults);
      reference.parallel.workers = workers;
      const SweepResult whole = runSweep(reference);
      const SweepFingerprint wholeFp = SweepFingerprint::of(whole);

      // Produce the complete checkpoint once, then replay kills.
      const std::string path = tempPath("occm_midwrite_ckpt.bin");
      std::filesystem::remove(path);
      SweepConfig writer = reference;
      writer.checkpointPath = path;
      (void)runSweep(writer);
      std::ostringstream buffer;
      buffer << std::ifstream(path).rdbuf();
      const std::string full = buffer.str();
      ASSERT_GT(full.size(), 8u);

      // Uncut replay: every run restores, bit for bit.
      {
        SweepConfig resume = reference;
        resume.checkpointPath = path;
        const SweepResult merged = runSweep(resume);
        EXPECT_EQ(merged.restoredRuns, 4u);
        EXPECT_EQ(SweepFingerprint::of(merged), wholeFp);
        expectProfilesIdentical(merged, whole);
      }

      const std::vector<std::size_t> cuts = {
          0, 1, full.size() / 4, full.size() / 2, 3 * full.size() / 4,
          full.size() - 2};
      for (const std::size_t cut : cuts) {
        std::filesystem::remove(path + ".corrupt");
        writeBytes(path, full.substr(0, cut));
        SweepConfig resume = reference;
        resume.checkpointPath = path;
        const SweepResult merged = runSweep(resume);
        EXPECT_EQ(SweepFingerprint::of(merged), wholeFp)
            << "cut at byte " << cut << ", pool " << workers
            << (withFaults ? ", faults" : "");
        // A truncated file is quarantined and diagnosed; nothing restores.
        EXPECT_EQ(merged.restoredRuns, 0u);
        EXPECT_FALSE(merged.checkpointWarning.empty()) << "cut " << cut;
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
        // The resumed sweep rewrote a loadable checkpoint.
        EXPECT_TRUE(SweepCheckpoint::loadChecked(path).hasValue());
      }
      std::filesystem::remove(path);
      std::filesystem::remove(path + ".corrupt");
    }
  }
}

TEST(SweepLifecycle, GarbageCheckpointQuarantinesAndStartsFresh) {
  const std::string path = tempPath("occm_lifecycle_garbage.bin");
  std::filesystem::remove(path + ".corrupt");
  writeBytes(path, "\x01\x02 not a checkpoint at all {{{");

  SweepConfig config = presetConfig(topology::testUma4(), false);
  config.parallel.workers = 1;
  config.checkpointPath = path;
  const SweepResult sweep = runSweep(config);
  EXPECT_EQ(sweep.profiles.size(), 4u);
  EXPECT_EQ(sweep.restoredRuns, 0u);
  EXPECT_NE(sweep.checkpointWarning.find("quarantined"), std::string::npos)
      << sweep.checkpointWarning;
  EXPECT_NE(sweep.diagnostics().find("checkpoint:"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

  // The rewritten checkpoint restores cleanly on the next invocation.
  const SweepResult again = runSweep(config);
  EXPECT_EQ(again.restoredRuns, 4u);
  EXPECT_TRUE(again.checkpointWarning.empty());

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");
}

TEST(CancellationPrimitives, TokenSourceAndDeadlineSemantics) {
  CancellationToken inert;
  EXPECT_FALSE(inert.valid());
  EXPECT_FALSE(inert.stopRequested());

  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.stopRequested());
  source.requestStop();
  source.requestStop();  // idempotent
  EXPECT_TRUE(token.stopRequested());
  EXPECT_TRUE(source.stopRequested());

  Deadline never;
  EXPECT_FALSE(never.armed());
  EXPECT_FALSE(never.expired());
  EXPECT_GT(never.remainingSeconds(), 1e18);

  const Deadline past = Deadline::after(-1.0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  EXPECT_LT(past.remainingSeconds(), 0.0);

  const Deadline future = Deadline::after(3600.0);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remainingSeconds(), 3000.0);

  // Spans past the clock's range saturate instead of overflowing; NaN
  // means "already expired", like seconds <= 0.
  for (const double huge :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const Deadline far = Deadline::after(huge);
    EXPECT_TRUE(far.armed()) << huge;
    EXPECT_FALSE(far.expired()) << huge;
    EXPECT_GT(far.remainingSeconds(), 1e9) << huge;
  }
  const Deadline nan =
      Deadline::after(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(nan.armed());
  EXPECT_TRUE(nan.expired());

  // A token carrying a deadline: it stops once the deadline expires,
  // with no flag at all...
  const CancellationToken expiring = CancellationToken{}.withDeadline(past);
  EXPECT_TRUE(expiring.valid());
  EXPECT_TRUE(expiring.stopRequested());
  EXPECT_FALSE(CancellationToken{}.withDeadline(never).valid());
  EXPECT_FALSE(CancellationToken{}.withDeadline(future).stopRequested());
  // ...or when its linked flag fires, deadline or not...
  CancellationSource linked;
  const CancellationToken both = linked.token().withDeadline(future);
  EXPECT_FALSE(both.stopRequested());
  linked.requestStop();
  EXPECT_TRUE(both.stopRequested());
  // ...and of two deadlines the earlier wins, in either order.
  EXPECT_TRUE(
      CancellationToken{}.withDeadline(future).withDeadline(past)
          .stopRequested());
  EXPECT_TRUE(
      CancellationToken{}.withDeadline(past).withDeadline(future)
          .stopRequested());
  EXPECT_FALSE(
      CancellationToken{}.withDeadline(future).withDeadline(never)
          .stopRequested());

  const RunAborted aborted(AbortReason::kCycleBudget, 12345, "budget blown");
  EXPECT_EQ(aborted.reason(), AbortReason::kCycleBudget);
  EXPECT_EQ(aborted.atCycle(), 12345u);
  EXPECT_STREQ(toString(AbortReason::kCancelled), "cancelled");
  EXPECT_STREQ(toString(AbortReason::kCycleBudget), "cycle-budget");
}

TEST(CancellationPrimitives, RunFailureKindNamesRoundTrip) {
  EXPECT_STREQ(toString(RunFailureKind::kException), "exception");
  EXPECT_STREQ(toString(RunFailureKind::kTimeout), "timeout");
  EXPECT_STREQ(toString(RunFailureKind::kCancelled), "cancelled");
}

}  // namespace
}  // namespace occm::analysis
