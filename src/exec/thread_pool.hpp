#pragma once

// exec: a small fixed-size thread pool with a FIFO task queue — the
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
//  - The queue is unbounded and submit() never blocks. Both callers bound
//    their own work: runSweep submits one task per pending core count, and
//    the advisor server's admission queue caps its outstanding jobs.
//  - The destructor runs every queued task, then joins the workers.

#include <atomic>
#include <condition_variable>
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
/// (when its whole text is a decimal integer in 1..4096, the
/// occm::wholeInteger rule of every --workers flag) and then to
/// std::thread::hardware_concurrency(), never below 1.
[[nodiscard]] int resolveWorkerCount(int requested);

/// Telemetry of one worker thread (host nanoseconds). All zeros when the
/// observability layer is compiled out.
struct WorkerStats {
  std::uint64_t tasks = 0;   ///< tasks this worker ran
  std::uint64_t busyNs = 0;  ///< wall time spent inside task bodies
};

/// End-of-life (or live) telemetry snapshot of a ThreadPool — the
/// parallel-efficiency picture: who did the work (per-worker task counts
/// and busy time) and the deepest the queue got. Host-time only; never
/// feeds back into simulated results. Empty/zero with
/// OCCM_ENABLE_OBS=OFF (the pool then takes no clock reads at all).
struct ThreadPoolStats {
  std::vector<WorkerStats> workers;
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
  /// Starts resolveWorkerCount(workers) worker threads.
  explicit ThreadPool(int workers);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Queues a task. The future becomes ready when the task finishes and
  /// rethrows anything the task threw. Throws ContractViolation on a null
  /// task.
  std::future<void> submit(std::function<void()> task);

  /// Telemetry snapshot (see ThreadPoolStats). Safe to call while the
  /// pool is running; a worker mid-task shows its current task counted
  /// with the busy time accrued so far excluded.
  [[nodiscard]] ThreadPoolStats stats() const;

 private:
  /// Per-worker telemetry slot. Relaxed atomics: each worker writes only
  /// its own slot; stats() reads concurrently and tolerates staleness.
  /// Cache-line aligned so two workers bumping adjacent slots never
  /// write-share a line (DESIGN.md §14; pinned by the ThreadPoolContention
  /// stress suite under tsan).
  struct alignas(kCacheLineBytes) WorkerSlot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busyNs{0};
  };
  static_assert(sizeof(WorkerSlot) >= kCacheLineBytes,
                "slot must fill its cache line");

  void workerLoop(WorkerSlot& slot);

  mutable std::mutex mutex_;
  std::condition_variable notEmpty_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;

  // Telemetry (all behind obs::kCompiledIn at the recording sites).
  std::deque<WorkerSlot> slots_;  ///< deque: stable refs, immovable atomics
  std::uint64_t maxQueueDepth_ = 0;  ///< guarded by mutex_
};

}  // namespace occm::exec
