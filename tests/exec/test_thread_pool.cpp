// Executor unit tests: lifecycle edge cases, per-task exception capture,
// the destructor's drain-then-join guarantee and a multi-producer stress
// run.

#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/run_trace.hpp"

namespace occm::exec {
namespace {

TEST(ThreadPool, ZeroTasksConstructsAndDestructsCleanly) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  EXPECT_EQ(pool.stats().maxQueueDepth, 0u);
  // Destructor joins idle workers without a task ever being submitted.
}

TEST(ThreadPool, SingleWorkerRunsEveryTaskInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    // One worker => tasks serialize; `order` needs no synchronization
    // beyond the future joins below.
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  // Declared before the pool, so it outlives the workers: the last
  // reference to the failed task's shared state — and with it the thrown
  // exception — drops on this thread after the pool has joined, never on
  // a worker racing the reads of e.what() below.
  std::shared_future<void> bad;
  ThreadPool pool(2);
  bad = pool.submit([] { throw std::runtime_error("task boom"); }).share();
  std::future<void> good = pool.submit([] {});
  try {
    bad.get();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  // A throwing task must not take its worker down with it.
  EXPECT_NO_THROW(good.get());
  EXPECT_NO_THROW(pool.submit([] {}).get());
}

TEST(ThreadPool, DestructorRunsQueuedTasksBeforeJoining) {
  // The advisor server's teardown relies on this: destroying the pool
  // runs every task still queued, then joins — nothing is dropped.
  constexpr int kQueued = 8;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> startedPromise;
  std::future<void> started = startedPromise.get_future();
  std::atomic<int> ran{0};
  auto pool = std::make_unique<ThreadPool>(1);
  (void)pool->submit([gate, &startedPromise] {
    startedPromise.set_value();
    gate.wait();
  });
  started.wait();  // the only worker is parked inside the gated task
  for (int i = 0; i < kQueued; ++i) {
    (void)pool->submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);
  // Open the gate from another thread once the destructor is under way;
  // the queued tasks can only run after it.
  std::thread opener([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.set_value();
  });
  pool.reset();
  opener.join();
  EXPECT_EQ(ran.load(), kQueued);
}

TEST(ThreadPool, MultiProducerStressRunsEveryTaskExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures.push_back(pool.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
  if constexpr (obs::kCompiledIn) {
    // Every future joined: no task is left queued or running.
    EXPECT_EQ(pool.stats().totalTasks(),
              static_cast<std::uint64_t>(kProducers * kTasksPerProducer));
  }
}

TEST(ThreadPool, NullTaskIsAContractViolation) {
  ThreadPool pool(1);
  EXPECT_THROW((void)pool.submit(nullptr), ContractViolation);
  // The refusal leaves the pool usable.
  EXPECT_NO_THROW(pool.submit([] {}).get());
}

TEST(ResolveWorkerCount, PositiveRequestPassesThrough) {
  EXPECT_EQ(resolveWorkerCount(3), 3);
  EXPECT_EQ(resolveWorkerCount(1), 1);
}

TEST(ResolveWorkerCount, ZeroFallsBackToEnvThenHardware) {
  const char* saved = std::getenv("OCCM_SWEEP_WORKERS");
  const std::string savedValue = saved != nullptr ? saved : "";

  ::setenv("OCCM_SWEEP_WORKERS", "5", 1);
  EXPECT_EQ(resolveWorkerCount(0), 5);
  EXPECT_EQ(resolveWorkerCount(-1), 5);
  EXPECT_EQ(resolveWorkerCount(2), 2);  // explicit request still wins

  ::unsetenv("OCCM_SWEEP_WORKERS");
  const int hardware = resolveWorkerCount(0);
  EXPECT_GE(hardware, 1);  // hardware concurrency, min 1

  // Garbage and out-of-range values fall back to the hardware count: the
  // whole text must be a decimal integer in 1..4096, as for every
  // --workers flag. " +3" and " +4" cannot both equal the hardware
  // count, so a parser that took either would fail here on any host.
  for (const char* bad :
       {"banana", "0", "-4", " +3", " +4", "4x", "4097"}) {
    ::setenv("OCCM_SWEEP_WORKERS", bad, 1);
    EXPECT_EQ(resolveWorkerCount(0), hardware) << '"' << bad << '"';
  }
  ::unsetenv("OCCM_SWEEP_WORKERS");

  if (saved != nullptr) {
    ::setenv("OCCM_SWEEP_WORKERS", savedValue.c_str(), 1);
  }
}

}  // namespace
}  // namespace occm::exec
