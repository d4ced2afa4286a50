#include "analysis/experiment.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <iomanip>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/distributed_sweep.hpp"
#include "common/cancellation.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_plan_io.hpp"

namespace occm::analysis {

namespace {

/// "1, 2, 12" — for contract-violation messages on lookups that miss.
std::string joinCores(const std::set<int>& cores) {
  std::string out;
  for (int c : cores) {
    if (!out.empty()) {
      out += ", ";
    }
    out += std::to_string(c);
  }
  return out.empty() ? "none" : out;
}

std::string coreCountsPresent(const std::vector<perf::RunProfile>& profiles) {
  std::set<int> cores;
  for (const perf::RunProfile& p : profiles) {
    cores.insert(p.activeCores);
  }
  return joinCores(cores);
}

/// Suffix naming what a partially-merged sweep is missing and the pool
/// size that produced it — empty when nothing is pending.
std::string pendingSuffix(const SweepResult& sweep) {
  const std::vector<int> pending = sweep.pendingCoreCounts();
  if (pending.empty()) {
    return {};
  }
  std::set<int> cores(pending.begin(), pending.end());
  return "; still pending: " + joinCores(cores) + " (sweep pool size " +
         std::to_string(sweep.requestedWorkers) + ")";
}

/// Checkpoint identity: CRC-32 of the sweep's fleet job — the complete,
/// self-contained description of a run — with the per-task fields
/// (taskId, cores) and the attempt policy zeroed. maxAttempts, the cycle
/// budget and crash injections decide whether an attempt fails, never
/// what a completed profile holds, so a resume may change them and still
/// restore; anything else that differs starts the sweep fresh.
std::uint32_t configDigest(const SweepConfig& config,
                           const workloads::WorkloadSpec& spec) {
  exec::dist::WireMessage message;
  message.kind = exec::dist::WireMessage::Kind::kAssign;
  message.job = makeJobSpec(config, spec, /*cores=*/0, /*taskId=*/0);
  message.job.maxAttempts = 0;
  message.job.cycleBudget = 0;
  const fault::FaultPlan plan = config.sim.faultPlan.withoutCrashes();
  message.job.faultPlanJson = plan.empty() ? std::string() : fault::toJson(plan);
  return crc32(exec::dist::encodeMessage(message));
}

/// Runs one core count: restore from the checkpoint when possible,
/// otherwise hand the shared attempt loop (analysis/sweep_task) a context
/// built from the sweep's configuration.
TaskOutcome runSweepTask(const SweepConfig& config,
                         const workloads::WorkloadSpec& spec,
                         const SweepCheckpoint& restoredState, int cores,
                         int maxAttempts, int poolSize) {
  if (std::optional<TaskOutcome> restored =
          restoredOutcome(restoredState, cores)) {
    return std::move(*restored);
  }
  RunTaskContext context;
  context.machine = &config.machine;
  context.workload = &spec;
  context.sim = &config.sim;
  context.cycleBudget = config.limits.cycleBudget;
  context.wallSeconds = config.limits.wallSeconds;
  context.isolation = config.isolation;
  context.maxAttempts = maxAttempts;
  context.poolSize = poolSize;
  context.sweepCancel = config.cancel;
  context.beforeRun = config.beforeRun;
  return runCoreCountTask(context, cores);
}

/// Serializes checkpoint writes and keeps their contents deterministic: a
/// snapshot is the restored state with the record of each core count this
/// invocation settled replaced, so the file never depends on which task
/// finished first. Records loaded from a prior checkpoint are preserved
/// even when this run requested a different core-count subset.
class CheckpointWriter {
 public:
  CheckpointWriter(const SweepConfig& config, SweepCheckpoint restoredState,
                   const std::vector<int>& coreCounts,
                   const std::vector<TaskOutcome>& outcomes)
      : path_(config.checkpointPath), base_(std::move(restoredState)),
        coreCounts_(coreCounts), outcomes_(outcomes),
        done_(outcomes.size(), false) {}

  /// Marks task `index` complete and persists the snapshot (no-op without
  /// a checkpoint path). Thread-safe.
  void commit(std::size_t index) {
    if (path_.empty()) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    done_[index] = true;
    SweepCheckpoint snapshot = base_;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      const TaskOutcome& outcome = outcomes_[i];
      // Restored outcomes are already in the base snapshot.
      if (!done_[i] || outcome.restored) {
        continue;
      }
      // A new profile, exception or crash is evidence about the run
      // itself and replaces the core count's record. Timeouts,
      // cancellations and skips are lifecycle outcomes of *this*
      // invocation: they leave the earlier record as it was, and a resume
      // re-attempts the core count.
      exec::RunOutcome record;
      record.profile = outcome.profile;
      if (outcome.failure.has_value() &&
          (outcome.failure->kind == RunFailureKind::kException ||
           outcome.failure->kind == RunFailureKind::kCrash)) {
        record.failure = outcome.failure;
      }
      if (record.profile.has_value() || record.failure.has_value()) {
        snapshot.outcomes[coreCounts_[i]] = std::move(record);
      }
    }
    snapshot.save(path_);
  }

 private:
  std::mutex mutex_;
  const std::string path_;
  const SweepCheckpoint base_;
  const std::vector<int>& coreCounts_;
  const std::vector<TaskOutcome>& outcomes_;
  std::vector<bool> done_;
};

}  // namespace

std::vector<model::MeasuredPoint> SweepResult::points() const {
  std::vector<model::MeasuredPoint> out;
  out.reserve(profiles.size());
  for (const perf::RunProfile& p : profiles) {
    out.push_back({p.activeCores, p.totalCyclesD()});
  }
  return out;
}

std::vector<int> SweepResult::pendingCoreCounts() const {
  std::vector<int> pending;
  for (int cores : requestedCoreCounts) {
    bool present = false;
    for (const perf::RunProfile& p : profiles) {
      present = present || p.activeCores == cores;
    }
    if (!present) {
      pending.push_back(cores);
    }
  }
  return pending;
}

const perf::RunProfile& SweepResult::at(int cores) const {
  for (const perf::RunProfile& p : profiles) {
    if (p.activeCores == cores) {
      return p;
    }
  }
  throw ContractViolation(
      "sweep has no run at n = " + std::to_string(cores) +
      "; core counts present: " + coreCountsPresent(profiles) +
      pendingSuffix(*this));
}

std::vector<double> SweepResult::omegas() const {
  bool haveC1 = false;
  for (const perf::RunProfile& p : profiles) {
    haveC1 = haveC1 || p.activeCores == 1;
  }
  if (!haveC1) {
    throw ContractViolation(
        "omega(n) needs the sweep's 1-core run as its C(1) anchor; core "
        "counts present: " + coreCountsPresent(profiles) +
        pendingSuffix(*this));
  }
  const double c1 = at(1).totalCyclesD();
  std::vector<double> out;
  out.reserve(profiles.size());
  for (const perf::RunProfile& p : profiles) {
    out.push_back(model::degreeOfContention(p.totalCyclesD(), c1));
  }
  return out;
}

std::string SweepResult::diagnostics() const {
  std::ostringstream out;
  out << profiles.size() << " run(s) completed";
  if (restoredRuns > 0) {
    out << " (" << restoredRuns << " restored from checkpoint)";
  }
  if (requestedWorkers > 1) {
    out << ", pool size " << requestedWorkers;
  }
  if (!poolStats.workers.empty() && poolStats.totalTasks() > 0) {
    // Parallel-efficiency one-liner: how evenly the pool shared the load
    // and how deep the queue got — readable without opening a Chrome
    // trace.
    std::uint64_t busiest = 0;
    std::uint64_t totalBusyNs = 0;
    for (const exec::WorkerStats& w : poolStats.workers) {
      busiest = std::max(busiest, w.busyNs);
      totalBusyNs += w.busyNs;
    }
    out << "\n  pool: " << poolStats.totalTasks() << " task(s) over "
        << poolStats.workers.size() << " worker(s)";
    if (busiest > 0) {
      const double balance =
          static_cast<double>(totalBusyNs) /
          (static_cast<double>(busiest) *
           static_cast<double>(poolStats.workers.size()));
      out << ", balance " << std::fixed << std::setprecision(2) << balance
          << std::defaultfloat << std::setprecision(6);
    }
    out << ", peak queue depth " << poolStats.maxQueueDepth;
  }
  if (dist.used) {
    out << "\n  distributed: " << dist.workersSeen << " worker(s), "
        << dist.fleetCompleted << " task(s) via fleet";
    if (dist.leases.leasesExpired > 0) {
      out << ", " << dist.leases.leasesExpired << " lease(s) expired";
    }
    if (dist.leases.redispatches > 0) {
      out << ", " << dist.leases.redispatches << " re-dispatch(es)";
    }
    if (dist.leases.speculativeLeases > 0) {
      out << ", " << dist.leases.speculativeLeases << " speculative lease(s)";
    }
    if (dist.leases.duplicatesDiscarded > 0) {
      out << ", " << dist.leases.duplicatesDiscarded
          << " duplicate(s) discarded";
    }
    if (dist.leases.workersEvicted > 0) {
      out << ", " << dist.leases.workersEvicted << " worker(s) evicted";
    }
    if (dist.degradedToLocal) {
      out << ", degraded to local";
    }
    if (!dist.error.empty()) {
      out << " (" << dist.error << ")";
    }
  }
  if (stopped) {
    out << ", stopped early (cancellation requested)";
  }
  const std::vector<int> pending = pendingCoreCounts();
  if (!pending.empty()) {
    std::set<int> cores(pending.begin(), pending.end());
    out << ", still pending: " << joinCores(cores);
  }
  if (!checkpointWarning.empty()) {
    out << "\n  checkpoint: " << checkpointWarning;
  }
  if (failures.empty()) {
    out << (checkpointWarning.empty() ? ", no failures" : "\n  no failures");
    return out.str();
  }
  out << (checkpointWarning.empty() ? ", " : "\n  ")
      << failures.size() << " failure record(s):";
  for (const RunFailure& f : failures) {
    out << "\n  n = " << f.cores << ": " << f.attempts << " attempt(s), "
        << (f.recovered ? "recovered" : "gave up");
    if (f.kind != RunFailureKind::kException) {
      out << " [" << toString(f.kind) << "]";
    }
    out << " — " << f.error;
  }
  return out.str();
}

perf::RunProfile runOnce(const topology::MachineSpec& machine,
                         const workloads::WorkloadSpec& workload,
                         int activeCores, const sim::SimConfig& simConfig) {
  workloads::WorkloadSpec spec = workload;
  if (spec.threads <= 0) {
    spec.threads = machine.logicalCores();
  }
  workloads::WorkloadInstance instance = workloads::makeWorkload(spec);
  sim::MachineSim simulator(machine, simConfig);
  return simulator.run(instance.threads, activeCores, instance.name);
}

SweepResult runSweep(const SweepConfig& config) {
  workloads::WorkloadSpec spec = config.workload;
  if (spec.threads <= 0) {
    spec.threads = config.machine.logicalCores();
  }
  // Invalid (program, class) pairs fail loudly here instead of surfacing
  // as per-task RunFailures on every core count.
  OCCM_REQUIRE_MSG(
      workloads::classValidFor(spec.program, spec.problemClass),
      "problem class not valid for this program");
  // An injected crash executed in-process would take down the harness
  // itself — exactly what isolation exists to contain.
  OCCM_REQUIRE_MSG(!config.sim.faultPlan.hasCrash() ||
                       config.isolation.enabled,
                   "crash-injection fault plans require "
                   "SweepConfig::isolation.enabled");
  std::vector<int> coreCounts = config.coreCounts;
  if (coreCounts.empty()) {
    for (int n = 1; n <= config.machine.logicalCores(); ++n) {
      coreCounts.push_back(n);
    }
  }

  SweepCheckpoint restoredState;
  restoredState.program =
      workloads::workloadName(spec.program, spec.problemClass);
  restoredState.machine = config.machine.name;
  std::string checkpointWarning;
  if (!config.checkpointPath.empty()) {
    restoredState.config = configDigest(config, spec);
    // Tolerant restore: a checkpoint that exists but cannot be trusted
    // (truncated, garbage, version-skewed, CRC-failed) is quarantined to
    // <path>.corrupt and the sweep starts fresh; only its diagnosis
    // survives, as SweepResult::checkpointWarning.
    auto loaded = SweepCheckpoint::loadOrQuarantine(config.checkpointPath);
    if (loaded) {
      if (loaded->matches(restoredState.config)) {
        restoredState = std::move(*loaded);
      }
    } else if (loaded.error().kind != CheckpointErrorKind::kMissing) {
      checkpointWarning = loaded.error().message();
    }
  }

  const int maxAttempts = std::max(1, config.maxAttempts);
  const int workers = exec::resolveWorkerCount(config.parallel.workers);
  exec::ThreadPoolStats poolStats;

  std::vector<TaskOutcome> outcomes(coreCounts.size());
  CheckpointWriter checkpoint(config, restoredState, coreCounts, outcomes);

  DistributedStats distStats;
  std::vector<RunFailure> distIncidents;
  if (config.distributed.listen) {
    // Fleet phase: restore first (finished work never crosses the wire),
    // then shard the rest across connected workers. Whatever the fleet
    // leaves unsettled — grace window expired, leases abandoned,
    // cancellation — falls through to the local path below.
    for (std::size_t i = 0; i < coreCounts.size(); ++i) {
      if (std::optional<TaskOutcome> restored =
              restoredOutcome(restoredState, coreCounts[i])) {
        outcomes[i] = std::move(*restored);
        checkpoint.commit(i);
      }
    }
    DistributedPhaseOutcome phase = runDistributedPhase(
        config, spec, coreCounts, outcomes,
        [&checkpoint](std::size_t index) { checkpoint.commit(index); });
    distStats = std::move(phase.stats);
    distIncidents = std::move(phase.incidents);
  }

  // Local phase over whatever is still unsettled — everything when the
  // distributed phase did not run, the leftovers (or nothing) when it
  // did. runSweepTask observes a fired sweep token itself, so a cancelled
  // fleet leaves these tasks pending rather than re-running them.
  std::vector<std::size_t> pendingTasks;
  pendingTasks.reserve(coreCounts.size());
  for (std::size_t i = 0; i < coreCounts.size(); ++i) {
    const TaskOutcome& outcome = outcomes[i];
    if (!outcome.profile.has_value() && !outcome.failure.has_value() &&
        !outcome.skipped) {
      pendingTasks.push_back(i);
    }
  }
  if (distStats.used && !pendingTasks.empty() &&
      !config.cancel.stopRequested()) {
    distStats.degradedToLocal = true;
  }
  if (workers == 1 || pendingTasks.size() <= 1) {
    // Serial path: run inline on the calling thread, in request order —
    // no pool, no synchronization beyond the (still deterministic)
    // checkpoint writer.
    for (const std::size_t i : pendingTasks) {
      outcomes[i] = runSweepTask(config, spec, restoredState, coreCounts[i],
                                 maxAttempts, workers);
      checkpoint.commit(i);
    }
  } else {
    // No more threads than tasks: a resolved pool size far above the
    // grid (a user's --workers) must not start idle OS threads.
    // requestedWorkers and RunFailure::poolSize keep the resolved size.
    exec::ThreadPool pool(
        std::min(workers, static_cast<int>(pendingTasks.size())));
    std::vector<std::future<void>> joins;
    joins.reserve(pendingTasks.size());
    for (const std::size_t i : pendingTasks) {
      joins.push_back(pool.submit([&, i] {
        outcomes[i] = runSweepTask(config, spec, restoredState,
                                   coreCounts[i], maxAttempts, workers);
        checkpoint.commit(i);
      }));
    }
    for (std::future<void>& join : joins) {
      join.get();  // tasks catch run failures; nothing should rethrow
    }
    // Snapshot after every join: all tasks have finished, so the stats
    // describe the completed sweep, not a racing mid-flight view.
    poolStats = pool.stats();
  }

  // Deterministic merge: request order, independent of completion order.
  SweepResult result;
  result.requestedWorkers = workers;
  result.requestedCoreCounts = coreCounts;
  result.checkpointWarning = std::move(checkpointWarning);
  result.poolStats = std::move(poolStats);
  result.profiles.reserve(coreCounts.size());
  for (TaskOutcome& outcome : outcomes) {
    result.stopped = result.stopped || outcome.skipped;
    if (outcome.failure.has_value()) {
      result.stopped =
          result.stopped || outcome.failure->kind == RunFailureKind::kCancelled;
      result.failures.push_back(std::move(*outcome.failure));
    }
    if (outcome.profile.has_value()) {
      result.profiles.push_back(std::move(*outcome.profile));
      result.restoredRuns += outcome.restored ? 1 : 0;
    }
  }
  // Fleet evidence rides behind the per-task records. An incident whose
  // task ended up with a profile anyway (re-dispatch or local fallback
  // won) is marked recovered now that every path has run.
  for (RunFailure& incident : distIncidents) {
    if (incident.cores > 0 && !incident.recovered) {
      for (const perf::RunProfile& p : result.profiles) {
        incident.recovered = incident.recovered ||
                             p.activeCores == incident.cores;
      }
    }
    result.failures.push_back(std::move(incident));
  }
  result.dist = std::move(distStats);
  result.stopped = result.stopped || config.cancel.stopRequested();
  return result;
}

std::vector<model::MeasuredPoint> pointsAt(const SweepResult& sweep,
                                           const std::vector<int>& coreCounts) {
  std::vector<model::MeasuredPoint> out;
  out.reserve(coreCounts.size());
  for (int cores : coreCounts) {
    const perf::RunProfile& p = sweep.at(cores);
    out.push_back({p.activeCores, p.totalCyclesD()});
  }
  return out;
}

}  // namespace occm::analysis
