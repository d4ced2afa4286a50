#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/whole_integer.hpp"
#include "obs/profiler.hpp"
#include "obs/run_trace.hpp"

namespace occm::exec {

int resolveWorkerCount(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("OCCM_SWEEP_WORKERS")) {
    if (const std::optional<int> value = wholeInteger(env, 1, 4096)) {
      return *value;
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(int workers) {
  const int workerCount = resolveWorkerCount(workers);
  workers_.reserve(static_cast<std::size_t>(workerCount));
  for (int i = 0; i < workerCount; ++i) {
    // deque::emplace_back never moves the slots earlier workers hold.
    WorkerSlot& slot = slots_.emplace_back();
    workers_.emplace_back([this, &slot] { workerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  notEmpty_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  OCCM_REQUIRE_MSG(task != nullptr, "null task");
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
    if constexpr (obs::kCompiledIn) {
      maxQueueDepth_ = std::max<std::uint64_t>(maxQueueDepth_, queue_.size());
    }
  }
  notEmpty_.notify_one();
  return future;
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  if constexpr (!obs::kCompiledIn) {
    return out;  // nothing was recorded; keep the documented empty shape
  }
  out.workers.reserve(slots_.size());
  for (const WorkerSlot& slot : slots_) {
    out.workers.push_back({slot.tasks.load(std::memory_order_relaxed),
                           slot.busyNs.load(std::memory_order_relaxed)});
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out.maxQueueDepth = maxQueueDepth_;
  return out;
}

void ThreadPool::workerLoop(WorkerSlot& slot) {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      notEmpty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if constexpr (obs::kCompiledIn) {
      const std::uint64_t startNs = obs::steadyNowNs();
      slot.tasks.fetch_add(1, std::memory_order_relaxed);
      task();  // packaged_task captures anything the task throws
      slot.busyNs.fetch_add(obs::steadyNowNs() - startNs,
                            std::memory_order_relaxed);
    } else {
      task();  // packaged_task captures anything the task throws
    }
  }
}

}  // namespace occm::exec
