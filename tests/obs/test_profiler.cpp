#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/crc32.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_trace.hpp"
#include "topology/presets.hpp"

// Suite names deliberately avoid the "Obs" prefix: these tests assert the
// profiler's *always-compiled* API surface plus the zero-cost contract,
// so the obs-disabled CI leg (ctest -E "ChromeTrace|Obs|...") must run
// them in both configurations.
namespace occm::obs {
namespace {

TEST(Profiler, ScopedPhaseAccumulatesAndNests) {
  Profiler profiler;
  Phase& outer = profiler.phase("outer");
  Phase& inner = profiler.phase("inner");
  {
    const ScopedPhase outerScope(outer);
    {
      const ScopedPhase innerScope(inner);
    }
    {
      const ScopedPhase innerScope(inner);
    }
  }
  const PhaseSnapshot outerSnap = outer.snapshot();
  const PhaseSnapshot innerSnap = inner.snapshot();
  EXPECT_EQ(outerSnap.name, "outer");
  EXPECT_EQ(outerSnap.calls, 1u);
  EXPECT_EQ(innerSnap.name, "inner");
  EXPECT_EQ(innerSnap.calls, 2u);
  // Inclusive timing: the outer scope contains both inner scopes.
  EXPECT_GE(outerSnap.wallNs, innerSnap.wallNs);
}

TEST(Profiler, TimersAreMonotonic) {
  const std::uint64_t wall0 = steadyNowNs();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(steadyNowNs(), wall0);
}

TEST(Profiler, PhaseReferencesAreStable) {
  Profiler profiler;
  Phase& first = profiler.phase("p0");
  for (int i = 1; i < 100; ++i) {
    static_cast<void>(profiler.phase("p" + std::to_string(i)));
  }
  // Re-opening returns the same object; registration never invalidates.
  EXPECT_EQ(&profiler.phase("p0"), &first);
  EXPECT_EQ(profiler.phase("p99").name(), "p99");
}

TEST(Profiler, ConcurrentRecordingLosesNothing) {
  Profiler profiler;
  Phase& phase = profiler.phase("shared.phase");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        phase.record(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(phase.snapshot().calls, kThreads * kPerThread);
  EXPECT_EQ(phase.snapshot().wallNs, kThreads * kPerThread);
}

// ---- Profiling must never steer the simulation ------------------------

analysis::SweepConfig smallSweep() {
  analysis::SweepConfig config;
  config.machine = topology::testUma4();
  config.workload.program = workloads::Program::kEP;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.coreCounts = {1, 2, 4};
  config.parallel.workers = 1;
  return config;
}

TEST(Profiler, FingerprintUnchangedByProfiling) {
  analysis::SweepConfig plain = smallSweep();
  const analysis::SweepResult without = analysis::runSweep(plain);

  Profiler profiler;
  analysis::SweepConfig profiled = smallSweep();
  profiled.sim.profiler = &profiler;
  profiled.parallel.workers = 2;  // and across pool sizes, in one stroke
  const analysis::SweepResult with = analysis::runSweep(profiled);

  EXPECT_EQ(crc32(analysis::sweepToCsv(without)),
            crc32(analysis::sweepToCsv(with)));
  ASSERT_EQ(without.profiles.size(), with.profiles.size());
  for (std::size_t i = 0; i < without.profiles.size(); ++i) {
    EXPECT_EQ(without.profiles[i].hotPath.eventsPopped,
              with.profiles[i].hotPath.eventsPopped);
    EXPECT_EQ(without.profiles[i].hotPath.controllerTicks,
              with.profiles[i].hotPath.controllerTicks);
  }
  if constexpr (kCompiledIn) {
    // The profiled sweep actually profiled: the run phase fired once per
    // completed run.
    EXPECT_EQ(profiler.phase("sim.run").snapshot().calls,
              with.profiles.size());
  }
}

TEST(HotPathStats, AccountsForTheEventLoop) {
  const perf::RunProfile profile =
      analysis::runOnce(topology::testUma4(),
                        {workloads::Program::kIS,
                         workloads::ProblemClass::kS},
                        2);
  const perf::HotPathStats& hot = profile.hotPath;
  // Every pushed event is popped (the loop drains), every pop is exactly
  // one advance or issue turn, and the queue held at least the initial
  // per-core events.
  EXPECT_GT(hot.eventsPopped, 0u);
  EXPECT_EQ(hot.eventsPopped, hot.eventsPushed);
  EXPECT_EQ(hot.eventsPopped, hot.advanceTurns + hot.issueTurns);
  EXPECT_GE(hot.maxEventQueueDepth, 2u);
  EXPECT_GT(hot.issueTurns, 0u);
  // Each off-chip issue reserves at least one memory-system resource.
  EXPECT_GE(hot.controllerTicks, hot.issueTurns);
}

TEST(HotPathStats, DeterministicAcrossRuns) {
  const auto run = [] {
    return analysis::runOnce(topology::testNuma4(),
                             {workloads::Program::kCG,
                              workloads::ProblemClass::kS},
                             4);
  };
  const perf::RunProfile a = run();
  const perf::RunProfile b = run();
  EXPECT_EQ(a.hotPath.eventsPopped, b.hotPath.eventsPopped);
  EXPECT_EQ(a.hotPath.eventsPushed, b.hotPath.eventsPushed);
  EXPECT_EQ(a.hotPath.maxEventQueueDepth, b.hotPath.maxEventQueueDepth);
  EXPECT_EQ(a.hotPath.advanceTurns, b.hotPath.advanceTurns);
  EXPECT_EQ(a.hotPath.issueTurns, b.hotPath.issueTurns);
  EXPECT_EQ(a.hotPath.controllerTicks, b.hotPath.controllerTicks);
}

TEST(PoolTelemetry, SweepReportsPoolStats) {
  analysis::SweepConfig config = smallSweep();
  config.parallel.workers = 2;
  const analysis::SweepResult sweep = analysis::runSweep(config);
  ASSERT_EQ(sweep.profiles.size(), 3u);
  if constexpr (kCompiledIn) {
    ASSERT_EQ(sweep.poolStats.workers.size(), 2u);
    EXPECT_EQ(sweep.poolStats.totalTasks(), 3u);
    EXPECT_GE(sweep.poolStats.maxQueueDepth, 1u);
    // The diagnostics line surfaces the pool without a Chrome trace.
    EXPECT_NE(sweep.diagnostics().find("pool: 3 task(s) over 2 worker(s)"),
              std::string::npos);
  } else {
    // Obs compiled out: the pool takes no clock reads and ships no stats.
    EXPECT_TRUE(sweep.poolStats.workers.empty());
  }
  // Serial sweeps never carry pool telemetry, obs on or off.
  const analysis::SweepResult serial = analysis::runSweep(smallSweep());
  EXPECT_TRUE(serial.poolStats.workers.empty());
}

TEST(PoolTelemetry, ThreadPoolStatsCountWork) {
  exec::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }).wait();
  }
  const exec::ThreadPoolStats stats = pool.stats();
  if constexpr (kCompiledIn) {
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_EQ(stats.totalTasks(), 8u);
    std::uint64_t busy = 0;
    for (const exec::WorkerStats& w : stats.workers) {
      busy += w.busyNs;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GE(stats.maxQueueDepth, 1u);
  } else {
    // Obs compiled out: stats() keeps the documented empty shape.
    EXPECT_TRUE(stats.workers.empty());
    EXPECT_EQ(stats.maxQueueDepth, 0u);
    EXPECT_EQ(stats.totalTasks(), 0u);
  }
}

}  // namespace
}  // namespace occm::obs
