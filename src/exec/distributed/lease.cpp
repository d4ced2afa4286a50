#include "exec/distributed/lease.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace occm::exec::dist {

LeaseTable::LeaseTable(LeaseConfig config, std::size_t taskCount)
    : config_(config), tasks_(taskCount) {}

void LeaseTable::workerJoined(const std::string& worker, std::uint64_t nowMs) {
  workers_[worker].lastSeenMs = nowMs;
}

std::vector<std::uint64_t> LeaseTable::workerLeft(const std::string& worker,
                                                  std::uint64_t nowMs) {
  std::vector<std::uint64_t> torn;
  workers_.erase(worker);
  for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
    Task& task = tasks_[id];
    if (task.state != TaskState::kLeased) {
      continue;
    }
    for (std::size_t i = task.leases.size(); i-- > 0;) {
      if (task.leases[i].worker == worker) {
        dropLease(task, i);
        torn.push_back(id);
      }
    }
    if (task.leases.empty()) {
      requeue(id, task, nowMs);
    }
  }
  return torn;
}

void LeaseTable::heartbeat(const std::string& worker, std::uint64_t nowMs) {
  auto it = workers_.find(worker);
  if (it != workers_.end()) {
    it->second.lastSeenMs = nowMs;
  }
}

void LeaseTable::grantLease(Task& task, const std::string& worker,
                            std::uint64_t nowMs, bool speculative) {
  Lease lease;
  lease.worker = worker;
  lease.startMs = nowMs;
  lease.deadlineMs =
      config_.leaseTimeoutMs == 0 ? 0 : nowMs + config_.leaseTimeoutMs;
  lease.speculative = speculative;
  task.leases.push_back(std::move(lease));
  task.state = TaskState::kLeased;
  ++stats_.leasesGranted;
  if (speculative) {
    ++stats_.speculativeLeases;
  }
}

std::optional<std::uint64_t> LeaseTable::nextAssignment(
    const std::string& worker, std::uint64_t nowMs) {
  if (workers_.find(worker) == workers_.end()) {
    return std::nullopt;  // not (or no longer) a member
  }
  // Lowest task id first: matches request order, so under a single worker
  // the dispatch order equals the serial execution order.
  for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
    Task& task = tasks_[id];
    if (task.state == TaskState::kPending && nowMs >= task.notBeforeMs) {
      grantLease(task, worker, nowMs, /*speculative=*/false);
      return id;
    }
  }
  if (config_.speculativeAfterMs == 0) {
    return std::nullopt;
  }
  // Nothing pending: speculate on the oldest straggling lease this worker
  // does not already hold.
  std::optional<std::uint64_t> best;
  std::uint64_t bestStart = 0;
  for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
    Task& task = tasks_[id];
    if (task.state != TaskState::kLeased) {
      continue;
    }
    bool heldByWorker = false;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (const Lease& lease : task.leases) {
      heldByWorker = heldByWorker || lease.worker == worker;
      oldest = std::min(oldest, lease.startMs);
    }
    if (heldByWorker || nowMs < oldest + config_.speculativeAfterMs) {
      continue;
    }
    if (!best.has_value() || oldest < bestStart) {
      best = id;
      bestStart = oldest;
    }
  }
  if (best.has_value()) {
    grantLease(tasks_[*best], worker, nowMs, /*speculative=*/true);
  }
  return best;
}

std::optional<std::uint64_t> LeaseTable::nextEligibleMs() const {
  std::optional<std::uint64_t> earliest;
  for (const Task& task : tasks_) {
    if (task.state != TaskState::kPending) {
      continue;
    }
    if (!earliest.has_value() || task.notBeforeMs < *earliest) {
      earliest = task.notBeforeMs;
    }
  }
  return earliest;
}

bool LeaseTable::completeTask(std::uint64_t taskId) {
  OCCM_REQUIRE_MSG(taskId < tasks_.size(), "result for unknown task id");
  Task& task = tasks_[taskId];
  if (task.state == TaskState::kSettled) {
    ++stats_.duplicatesDiscarded;
    return false;
  }
  // A result from a worker whose lease already expired (it was slow, not
  // dead) still wins if the task is unsettled — the work is valid and
  // deterministic regardless of who finished it.
  task.leases.clear();
  if (task.state == TaskState::kAbandoned) {
    // A straggler outlived the expiry cap: accept the work after all.
    --abandonedCount_;
    --stats_.tasksAbandoned;
  }
  task.state = TaskState::kSettled;
  ++settled_;
  return true;
}

LeaseTable::TickEvents LeaseTable::tick(std::uint64_t nowMs) {
  TickEvents events;
  // Evictions first, so a dead worker's leases expire this same tick.
  if (config_.heartbeatTimeoutMs != 0) {
    for (auto it = workers_.begin(); it != workers_.end();) {
      if (nowMs >= it->second.lastSeenMs + config_.heartbeatTimeoutMs) {
        events.evictedWorkers.push_back(it->first);
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
    for (const std::string& worker : events.evictedWorkers) {
      ++stats_.workersEvicted;
      for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
        Task& task = tasks_[id];
        if (task.state != TaskState::kLeased) {
          continue;
        }
        for (std::size_t i = task.leases.size(); i-- > 0;) {
          if (task.leases[i].worker == worker) {
            dropLease(task, i);
            events.expired.emplace_back(id, worker);
          }
        }
        if (task.leases.empty()) {
          requeue(id, task, nowMs);
          if (task.state == TaskState::kAbandoned) {
            events.abandoned.push_back(id);
          }
        }
      }
    }
  }
  if (config_.leaseTimeoutMs != 0) {
    for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
      Task& task = tasks_[id];
      if (task.state != TaskState::kLeased) {
        continue;
      }
      for (std::size_t i = task.leases.size(); i-- > 0;) {
        if (task.leases[i].deadlineMs != 0 &&
            nowMs >= task.leases[i].deadlineMs) {
          events.expired.emplace_back(id, task.leases[i].worker);
          dropLease(task, i);
          ++stats_.leasesExpired;
        }
      }
      if (task.leases.empty()) {
        requeue(id, task, nowMs);
        if (task.state == TaskState::kAbandoned) {
          events.abandoned.push_back(id);
        }
      }
    }
  }
  return events;
}

void LeaseTable::cancelAll() {
  for (Task& task : tasks_) {
    task.leases.clear();
    if (task.state == TaskState::kLeased) {
      task.state = TaskState::kPending;  // pending again; a resume retries
    }
  }
}

bool LeaseTable::taskSettled(std::uint64_t taskId) const {
  OCCM_REQUIRE_MSG(taskId < tasks_.size(), "query for unknown task id");
  return tasks_[taskId].state == TaskState::kSettled;
}

void LeaseTable::dropLease(Task& task, std::size_t index) {
  task.leases.erase(task.leases.begin() +
                    static_cast<std::ptrdiff_t>(index));
}

void LeaseTable::requeue(std::uint64_t taskId, Task& task,
                         std::uint64_t nowMs) {
  ++task.expiries;
  if (config_.maxExpiries != 0 && task.expiries >= config_.maxExpiries) {
    task.state = TaskState::kAbandoned;
    ++abandonedCount_;
    ++stats_.tasksAbandoned;
    return;
  }
  // Deterministic per-task jitter: decorrelate re-dispatch storms across
  // tasks while keeping each task's schedule replayable.
  BackoffPolicy policy = config_.redispatchBackoff;
  policy.seed ^= taskId;
  task.state = TaskState::kPending;
  task.notBeforeMs = nowMs + policy.delay(task.expiries - 1);
  ++stats_.redispatches;
}

}  // namespace occm::exec::dist
