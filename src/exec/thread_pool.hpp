#pragma once

// exec: a small fixed-size thread pool with a bounded task queue — the
// concurrency substrate for running independent simulations (one sweep
// point each) in parallel.
//
// Design constraints, in order:
//  - Determinism lives in the caller, not here. The pool guarantees only
//    that every submitted task runs exactly once on some worker; callers
//    that need reproducible output must make tasks independent (no shared
//    mutable state) and merge results in a fixed order (see
//    analysis::runSweep).
//  - Exceptions never kill a worker: each task runs inside a
//    std::packaged_task, so whatever it throws is captured and rethrown
//    from the submitter's future.
//  - The queue is bounded. submit() blocks when the queue is full
//    (backpressure towards producers), trySubmit() refuses instead; both
//    keep memory proportional to workers + capacity, not to the number of
//    tasks a producer can dream up.
//  - Cancellation is cooperative and cannot deadlock shutdown. cancel()
//    discards every queued-but-unstarted task (their futures report
//    broken_promise), wakes every submitter blocked on backpressure (they
//    throw a typed ContractViolation instead of queueing), and lets
//    in-flight tasks finish. cancel() returns only after every blocked
//    submit() has left the queue's wait, so the well-ordered sequence
//    cancel() -> ~ThreadPool() can never join workers while a submitter
//    still touches pool state.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/aligned.hpp"

namespace occm::exec {

/// Resolves a requested pool size: positive values pass through; zero or
/// negative fall back to the OCCM_SWEEP_WORKERS environment variable
/// (when it parses as a positive integer) and then to
/// std::thread::hardware_concurrency(), never below 1.
[[nodiscard]] int resolveWorkerCount(int requested);

struct ThreadPoolConfig {
  /// Worker threads; <= 0 resolves via resolveWorkerCount.
  int workers = 0;
  /// Bounded queue capacity (tasks waiting, excluding ones already
  /// running); 0 means 2x the worker count.
  std::size_t queueCapacity = 0;
};

/// Telemetry of one worker thread (host nanoseconds). All zeros when the
/// observability layer is compiled out.
struct WorkerStats {
  std::uint64_t tasks = 0;        ///< tasks this worker ran
  std::uint64_t busyNs = 0;       ///< wall time spent inside task bodies
  std::uint64_t queueWaitNs = 0;  ///< submit-to-pickup latency, summed
};

/// End-of-life (or live) telemetry snapshot of a ThreadPool — the
/// parallel-efficiency picture: who did the work (per-worker task counts
/// and busy time), how long tasks sat queued, how often producers hit
/// backpressure, and the deepest the queue got. Host-time only; never
/// feeds back into simulated results. Empty/zero with
/// OCCM_ENABLE_OBS=OFF (the pool then takes no clock reads at all).
struct ThreadPoolStats {
  std::vector<WorkerStats> workers;
  std::uint64_t submitted = 0;      ///< tasks accepted (submit + trySubmit)
  std::uint64_t submitBlockNs = 0;  ///< total backpressure wait in submit()
  std::uint64_t maxQueueDepth = 0;  ///< peak tasks waiting in the queue

  /// Sum of tasks over workers (== tasks completed + tasks running).
  [[nodiscard]] std::uint64_t totalTasks() const noexcept {
    std::uint64_t total = 0;
    for (const WorkerStats& w : workers) {
      total += w.tasks;
    }
    return total;
  }
};

class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolConfig config = {});
  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] std::size_t queueCapacity() const noexcept {
    return capacity_;
  }

  /// Submits a task, blocking while the queue is at capacity. The future
  /// becomes ready when the task finishes and rethrows anything the task
  /// threw. Throws ContractViolation if the pool is shutting down or was
  /// cancelled (including while blocked on backpressure).
  std::future<void> submit(std::function<void()> task);

  /// Non-blocking submit: returns false — leaving the task unqueued —
  /// when the queue is at capacity or the pool is shutting down. On
  /// success, stores the task's future into *future when it is non-null.
  [[nodiscard]] bool trySubmit(std::function<void()> task,
                               std::future<void>* future = nullptr);

  /// Cooperative cancellation: discards every queued task (their futures
  /// report std::future_error/broken_promise), wakes submitters blocked
  /// on backpressure (they throw), and lets tasks already running finish.
  /// Blocks until no submit() is inside the queue wait, so destroying the
  /// pool right after cancel() is race-free. Idempotent; thread-safe.
  void cancel();

  /// True once cancel() has been called.
  [[nodiscard]] bool cancelled() const;

  /// Tasks queued but not yet picked up by a worker.
  [[nodiscard]] std::size_t queued() const;

  /// Telemetry snapshot (see ThreadPoolStats). Safe to call while the
  /// pool is running; a worker mid-task shows its current task counted
  /// with the busy time accrued so far excluded.
  [[nodiscard]] ThreadPoolStats stats() const;

 private:
  /// One queued task plus the host time it was accepted (0 when the
  /// observability layer is compiled out).
  struct Entry {
    std::packaged_task<void()> task;
    std::uint64_t enqueueNs = 0;
  };

  /// Per-worker telemetry slot. Relaxed atomics: each worker writes only
  /// its own slot; stats() reads concurrently and tolerates staleness.
  /// Cache-line aligned so two workers bumping adjacent slots never
  /// write-share a line (DESIGN.md §14; pinned by the ThreadPoolContention
  /// stress suite under tsan).
  struct alignas(kCacheLineBytes) WorkerSlot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busyNs{0};
    std::atomic<std::uint64_t> queueWaitNs{0};
  };
  static_assert(sizeof(WorkerSlot) >= kCacheLineBytes,
                "slot must fill its cache line");

  void workerLoop(std::size_t slot);

  mutable std::mutex mutex_;
  std::condition_variable notEmpty_;
  std::condition_variable notFull_;
  std::condition_variable submittersIdle_;
  std::deque<Entry> queue_;
  std::vector<std::thread> workers_;
  std::size_t capacity_ = 0;
  std::size_t blockedSubmitters_ = 0;
  bool stopping_ = false;
  bool cancelled_ = false;

  // Telemetry (all behind obs::kCompiledIn at the recording sites).
  std::deque<WorkerSlot> slots_;  ///< deque: stable refs, immovable atomics
  std::uint64_t submitted_ = 0;       ///< guarded by mutex_
  std::uint64_t submitBlockNs_ = 0;   ///< guarded by mutex_
  std::uint64_t maxQueueDepth_ = 0;   ///< guarded by mutex_
};

}  // namespace occm::exec
