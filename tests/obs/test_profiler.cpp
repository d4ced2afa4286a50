#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/crc32.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metric_registry.hpp"
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
    const ScopedPhase outerScope(profiler, outer);
    {
      const ScopedPhase innerScope(profiler, inner);
    }
    {
      const ScopedPhase innerScope(profiler, inner);
    }
  }
  const std::vector<PhaseSnapshot> phases = profiler.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "outer");
  EXPECT_EQ(phases[0].calls, 1u);
  EXPECT_EQ(phases[1].name, "inner");
  EXPECT_EQ(phases[1].calls, 2u);
  // Inclusive timing: the outer scope contains both inner scopes.
  EXPECT_GE(phases[0].wallNs, phases[1].wallNs);
  EXPECT_GE(phases[0].maxWallNs, phases[1].maxWallNs);
}

TEST(Profiler, TimersAreMonotonic) {
  Profiler profiler;
  const std::uint64_t wall0 = steadyNowNs();
  const std::uint64_t elapsed0 = profiler.elapsedNs();
  const std::uint64_t cpu0 = threadCpuNowNs();
  // Burn a little CPU so the thread clock must advance too.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(steadyNowNs(), wall0);
  EXPECT_GE(profiler.elapsedNs(), elapsed0);
  EXPECT_GE(threadCpuNowNs(), cpu0);
}

TEST(Profiler, PhaseAndCounterReferencesAreStable) {
  Profiler profiler;
  Phase& first = profiler.phase("p0");
  Counter& firstCounter = profiler.counter("c0");
  for (int i = 1; i < 100; ++i) {
    static_cast<void>(profiler.phase("p" + std::to_string(i)));
    static_cast<void>(profiler.counter("c" + std::to_string(i)));
  }
  // Re-opening returns the same object; registration never invalidates.
  EXPECT_EQ(&profiler.phase("p0"), &first);
  EXPECT_EQ(&profiler.counter("c0"), &firstCounter);
  EXPECT_EQ(profiler.phases().size(), 100u);
  EXPECT_EQ(profiler.counters().size(), 100u);
}

TEST(Profiler, CounterOverflowWraps) {
  Profiler profiler;
  Counter& counter = profiler.counter("wrap");
  counter.add(std::numeric_limits<std::uint64_t>::max());
  counter.add(3);  // 2^64 - 1 + 3 wraps to 2
  EXPECT_EQ(counter.value(), 2u);
}

TEST(Profiler, CounterKeepsFirstUnit) {
  Profiler profiler;
  static_cast<void>(profiler.counter("ops", "reservations"));
  Counter& reopened = profiler.counter("ops", "somethingelse");
  EXPECT_EQ(reopened.unit(), "reservations");
}

TEST(Profiler, ResetZeroesButKeepsRegistrations) {
  Profiler profiler;
  Phase& phase = profiler.phase("work");
  phase.record(10, 5);
  profiler.counter("n").add(7);
  profiler.reset();
  EXPECT_EQ(profiler.phases().size(), 1u);
  EXPECT_EQ(profiler.phases()[0].calls, 0u);
  EXPECT_EQ(profiler.phases()[0].wallNs, 0u);
  EXPECT_EQ(profiler.counters()[0].value, 0u);
}

TEST(Profiler, ExportsThroughMetricRegistry) {
  Profiler profiler;
  profiler.phase("sim.run").record(1000, 800);
  profiler.counter("sim.events_popped").add(42);
  MetricRegistry registry(100);
  profiler.exportTo(registry, 0);
  const TimeSeries& wall = registry.gauge("prof.phase.sim.run.wall_ns", "ns");
  ASSERT_EQ(wall.windowCount(), 1u);
  EXPECT_DOUBLE_EQ(wall.value(0), 1000.0);
  const TimeSeries& popped =
      registry.gauge("prof.counter.sim.events_popped", "events");
  EXPECT_DOUBLE_EQ(popped.value(0), 42.0);
}

TEST(Profiler, ChromeTraceCarriesSpansAndCounters) {
  ProfilerConfig config;
  config.spans = true;
  Profiler profiler(config);
  Phase& phase = profiler.phase("sweep.task");
  profiler.counter("ticks").add(5);
  profiler.recordSpan(phase, 100, 50);  // test seam: span without a clock
  const std::string json = profiler.chromeTrace();
  EXPECT_NE(json.find("\"sweep.task\""), std::string::npos);
  EXPECT_NE(json.find("\"prof.counter.ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"thread 0\""), std::string::npos);
}

// The zero-cost contract, asserted from both sides: with the obs layer
// compiled in, the macros record; compiled out, they must not evaluate
// their operands at all (an unevaluated-operand side effect would be a
// contract break caught by the counter staying zero in the obs-off CI
// leg — and by the `sideEffects` probe staying zero in *both* legs,
// since the macro arguments below are intentionally side-effect free).
TEST(Profiler, ConcurrentRecordingLosesNothing) {
  Profiler profiler;
  Counter& counter = profiler.counter("shared");
  Phase& phase = profiler.phase("shared.phase");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add(1);
        phase.record(1, 1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(profiler.phases()[0].calls, kThreads * kPerThread);
  EXPECT_EQ(profiler.phases()[0].wallNs, kThreads * kPerThread);
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
    // completed run and the counters mirror the profiles' totals.
    std::uint64_t poppedTotal = 0;
    for (const perf::RunProfile& p : with.profiles) {
      poppedTotal += p.hotPath.eventsPopped;
    }
    bool sawRunPhase = false;
    for (const PhaseSnapshot& phase : profiler.phases()) {
      sawRunPhase = sawRunPhase || (phase.name == "sim.run" &&
                                    phase.calls == with.profiles.size());
    }
    EXPECT_TRUE(sawRunPhase);
    for (const CounterSnapshot& c : profiler.counters()) {
      if (c.name == "sim.events_popped") {
        EXPECT_EQ(c.value, poppedTotal);
      }
    }
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
    EXPECT_EQ(sweep.poolStats.submitted, 3u);
    EXPECT_EQ(sweep.poolStats.totalTasks(), 3u);
    EXPECT_GE(sweep.poolStats.maxQueueDepth, 1u);
    EXPECT_FALSE(sweep.poolStats.queueOccupancy.empty());
    // The diagnostics line surfaces the pool without a Chrome trace.
    EXPECT_NE(sweep.diagnostics().find("pool: 3 task(s) over 2 worker(s)"),
              std::string::npos);
    const std::string csv = analysis::poolStatsToCsv(sweep.poolStats);
    EXPECT_NE(csv.find("pool,submitted,3"), std::string::npos);
    EXPECT_NE(csv.find("worker1,tasks,"), std::string::npos);
  } else {
    // Obs compiled out: the pool takes no clock reads and ships no stats.
    EXPECT_TRUE(sweep.poolStats.workers.empty());
    EXPECT_EQ(analysis::poolStatsToCsv(sweep.poolStats),
              "scope,metric,value\n");
  }
  // Serial sweeps never carry pool telemetry, obs on or off.
  const analysis::SweepResult serial = analysis::runSweep(smallSweep());
  EXPECT_TRUE(serial.poolStats.workers.empty());
}

TEST(PoolTelemetry, ThreadPoolStatsCountWorkAndBackpressure) {
  exec::ThreadPoolConfig config;
  config.workers = 2;
  config.queueCapacity = 2;
  exec::ThreadPool pool(config);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }).wait();
  }
  const exec::ThreadPoolStats stats = pool.stats();
  if constexpr (kCompiledIn) {
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.totalTasks(), 8u);
    std::uint64_t busy = 0;
    for (const exec::WorkerStats& w : stats.workers) {
      busy += w.busyNs;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GE(stats.maxQueueDepth, 1u);
    EXPECT_FALSE(stats.queueOccupancy.empty());
  } else {
    // Obs compiled out: stats() keeps the documented empty shape.
    EXPECT_TRUE(stats.workers.empty());
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.totalTasks(), 0u);
  }
}

}  // namespace
}  // namespace occm::obs
