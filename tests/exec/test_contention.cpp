// Two-thread contention stress over the padded parallel-sweep telemetry
// paths (DESIGN.md §14): ThreadPool worker slots and the profiler's
// Phase objects. Every assertion is an *exact* count — relaxed
// atomics may be stale mid-run but must never lose an increment — and the
// suite name matches the tsan CI leg's filter (ThreadPool…) so the same
// interleavings run under the race detector.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/run_trace.hpp"

namespace occm {
namespace {

TEST(ThreadPoolContention, TelemetryObjectsAreCacheLinePadded) {
  // The layout contract itself: two adjacently-registered phases must not
  // write-share a cache line.
  static_assert(alignof(obs::Phase) >= kCacheLineBytes);
  static_assert(sizeof(obs::Phase) % kCacheLineBytes == 0);

  obs::Profiler profiler;
  obs::Phase& a = profiler.phase("pad.a");
  obs::Phase& b = profiler.phase("pad.b");
  const auto delta = reinterpret_cast<std::uintptr_t>(&b) -
                     reinterpret_cast<std::uintptr_t>(&a);
  EXPECT_GE(delta, kCacheLineBytes);
}

TEST(ThreadPoolContention, PhaseRecordsAreExactUnderTwoThreads) {
  constexpr std::uint64_t kPerThread = 100'000;
  obs::Profiler profiler;
  obs::Phase& phase = profiler.phase("stress.phase");

  std::atomic<bool> go{false};
  auto hammer = [&go, &phase] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      phase.record(/*wallNs=*/3);
    }
  };
  std::thread t1(hammer);
  std::thread t2(hammer);
  go.store(true, std::memory_order_release);
  t1.join();
  t2.join();

  const obs::PhaseSnapshot snap = phase.snapshot();
  EXPECT_EQ(snap.calls, 2 * kPerThread);
  EXPECT_EQ(snap.wallNs, 2 * kPerThread * 3);
}

TEST(ThreadPoolContention, WorkerSlotCountsAreExactAcrossTwoWorkers) {
  // Two workers each bump their own (padded) telemetry slot per task
  // while the main thread polls stats() concurrently. Total task counts
  // must come out exact; the concurrent reads must be race-free (tsan).
  constexpr int kTasks = 2'000;
  exec::ThreadPool pool(2);
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
    if (i % 256 == 0) {
      // Concurrent reader: totals are allowed to lag, never to exceed.
      EXPECT_LE(pool.stats().totalTasks(), static_cast<std::uint64_t>(i) + 1);
    }
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kTasks));

  const exec::ThreadPoolStats stats = pool.stats();
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(stats.totalTasks(), static_cast<std::uint64_t>(kTasks));
    ASSERT_EQ(stats.workers.size(), 2u);
    // Both workers must have participated under sustained load — the
    // queue kept refilling, so a worker only idles if pickup is broken.
    EXPECT_EQ(stats.workers[0].tasks + stats.workers[1].tasks,
              static_cast<std::uint64_t>(kTasks));
  } else {
    EXPECT_EQ(stats.totalTasks(), 0u);  // telemetry compiled out
  }
}

}  // namespace
}  // namespace occm
