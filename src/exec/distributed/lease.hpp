#pragma once

// The coordinator's work queue as *leases*: each task is handed to a
// worker with a deadline, heartbeats keep the worker alive, and an
// expired lease (deadline passed, worker evicted, connection lost) puts
// the task back in the queue behind a capped-exponential backoff with
// deterministic jitter (common/backoff). Tail stragglers are
// speculatively re-dispatched; the first valid result wins and
// duplicates are discarded by task id. Only a fleet result settles a
// task: checkpoint-restored runs never enter the table (the sweep leases
// unsettled runs only), and the local fallback runs after the fleet
// phase has ended.
//
// Deliberately a pure state machine over an injected clock (milliseconds
// since an arbitrary epoch): every timed transition takes `nowMs`, so the
// tier-1 tests drive expiry, eviction, speculation and convergence with
// a fake clock and zero real sleeps. The coordinator's poll loop is the
// only caller that feeds it real time.
//
// Determinism note: which worker runs which task (and how often) is
// timing-dependent and NOT deterministic — what is deterministic is the
// merged output, because every task is self-contained, results are keyed
// by task id, and the first valid result settles a task permanently.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.hpp"

namespace occm::exec::dist {

struct LeaseConfig {
  /// A lease older than this is expired and its task re-queued. 0 = never
  /// expire (results or worker death are then the only recovery paths).
  std::uint64_t leaseTimeoutMs = 60'000;
  /// A worker silent longer than this (no result, pong, or any frame) is
  /// evicted and its leases expire immediately. 0 = never evict.
  std::uint64_t heartbeatTimeoutMs = 15'000;
  /// Delay schedule for re-queued tasks: expiry k waits
  /// redispatchBackoff.delay(k) ms before the task is assignable again.
  BackoffPolicy redispatchBackoff{.base = 100, .cap = 5'000,
                                  .jitterPct256 = 64, .seed = 0x0ccd15717ULL};
  /// Give up on a task after this many lease expiries (it reports as
  /// worker-lost). 0 = retry forever.
  std::uint32_t maxExpiries = 16;
  /// Tail-straggler speculation: when no task is pending and a lease has
  /// been running at least this long, an idle worker gets a duplicate of
  /// the oldest such lease. 0 disables speculation.
  std::uint64_t speculativeAfterMs = 10'000;
};

/// Counters surfaced as SweepResult diagnostics (DistributedStats::leases).
struct LeaseStats {
  std::uint64_t leasesGranted = 0;
  std::uint64_t leasesExpired = 0;
  std::uint64_t redispatches = 0;       ///< re-queues after expiry
  std::uint64_t speculativeLeases = 0;  ///< duplicates granted to idle workers
  std::uint64_t duplicatesDiscarded = 0;
  std::uint64_t workersEvicted = 0;
  std::uint64_t tasksAbandoned = 0;
};

class LeaseTable {
 public:
  LeaseTable(LeaseConfig config, std::size_t taskCount);

  // -- worker membership ---------------------------------------------------

  void workerJoined(const std::string& worker, std::uint64_t nowMs);
  /// Graceful or detected disconnect: all of the worker's leases expire
  /// immediately (tasks re-queue with backoff) and it stops receiving
  /// assignments. Returns the task ids whose leases were torn down.
  std::vector<std::uint64_t> workerLeft(const std::string& worker,
                                        std::uint64_t nowMs);
  /// Any frame from the worker counts as a heartbeat.
  void heartbeat(const std::string& worker, std::uint64_t nowMs);
  [[nodiscard]] std::size_t aliveWorkers() const noexcept {
    return workers_.size();
  }

  // -- assignment ----------------------------------------------------------

  /// Next task for an idle `worker`: the lowest-id pending task whose
  /// backoff has elapsed, else (when nothing is pending) a speculative
  /// duplicate of the oldest old-enough in-flight lease the worker does
  /// not already hold. nullopt = nothing to hand out right now.
  [[nodiscard]] std::optional<std::uint64_t> nextAssignment(
      const std::string& worker, std::uint64_t nowMs);

  /// Earliest nowMs at which nextAssignment could return a task that is
  /// currently pending but backed off; nullopt when no task is waiting on
  /// backoff. Lets the poll loop size its timeout instead of spinning.
  [[nodiscard]] std::optional<std::uint64_t> nextEligibleMs() const;

  // -- results -------------------------------------------------------------

  /// A result for `taskId` arrived. Returns true when this result settles
  /// the task (first valid result wins) and drops every lease on it;
  /// false when the task is already settled — the duplicate is counted
  /// and discarded.
  bool completeTask(std::uint64_t taskId);

  // -- clock ---------------------------------------------------------------

  struct TickEvents {
    /// (taskId, worker) pairs whose leases expired this tick.
    std::vector<std::pair<std::uint64_t, std::string>> expired;
    std::vector<std::string> evictedWorkers;
    /// Tasks that exhausted maxExpiries this tick and will never be
    /// re-dispatched (the coordinator records them as worker-lost).
    std::vector<std::uint64_t> abandoned;
  };

  /// Advances time: expires overdue leases, evicts silent workers.
  TickEvents tick(std::uint64_t nowMs);

  /// Cancellation: tears down every outstanding lease without
  /// re-queueing.
  void cancelAll();

  // -- introspection -------------------------------------------------------

  [[nodiscard]] bool taskSettled(std::uint64_t taskId) const;
  [[nodiscard]] bool allSettled() const noexcept {
    return settled_ == tasks_.size();
  }
  /// Settled + abandoned: nothing left for the fleet to do.
  [[nodiscard]] bool drained() const noexcept {
    return settled_ + abandonedCount_ == tasks_.size();
  }
  [[nodiscard]] const LeaseStats& stats() const noexcept { return stats_; }

 private:
  enum class TaskState : std::uint8_t {
    kPending,   ///< waiting for a worker (possibly backed off)
    kLeased,    ///< at least one live lease
    kSettled,   ///< a valid result landed
    kAbandoned  ///< exhausted maxExpiries; reported as worker-lost
  };

  struct Lease {
    std::string worker;
    std::uint64_t startMs = 0;
    std::uint64_t deadlineMs = 0;  ///< 0 = no deadline
    bool speculative = false;
  };

  struct Task {
    TaskState state = TaskState::kPending;
    std::uint64_t notBeforeMs = 0;  ///< backoff gate while pending
    std::uint32_t expiries = 0;     ///< feeds the backoff attempt index
    std::vector<Lease> leases;      ///< >1 only under speculation
  };

  struct WorkerInfo {
    std::uint64_t lastSeenMs = 0;
  };

  void grantLease(Task& task, const std::string& worker, std::uint64_t nowMs,
                  bool speculative);
  /// Ends one lease. Does not touch task state.
  static void dropLease(Task& task, std::size_t index);
  /// Re-queues a task after a lease loss (or abandons it past the cap).
  void requeue(std::uint64_t taskId, Task& task, std::uint64_t nowMs);

  LeaseConfig config_;
  std::vector<Task> tasks_;
  std::map<std::string, WorkerInfo> workers_;
  std::size_t settled_ = 0;
  std::size_t abandonedCount_ = 0;
  LeaseStats stats_;
};

}  // namespace occm::exec::dist
