#include "analysis/distributed_sweep.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/sweep_task.hpp"
#include "exec/distributed/coordinator.hpp"
#include "fault/fault_plan_io.hpp"
#include "workloads/problem.hpp"

namespace occm::analysis {

namespace {

namespace dist = exec::dist;

std::uint64_t toMs(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1'000.0 + 0.5);
}

// Name -> enum parsing lives in workloads/problem.hpp (parseProgram /
// parseProblemClass), shared with the serve-tier request validation.

RunFailureKind incidentKind(dist::WorkerIncident::Kind kind) {
  switch (kind) {
    case dist::WorkerIncident::Kind::kWorkerLost:
      return RunFailureKind::kWorkerLost;
    case dist::WorkerIncident::Kind::kHandshake:
      return RunFailureKind::kHandshake;
    case dist::WorkerIncident::Kind::kFrameCorrupt:
      return RunFailureKind::kFrameCorrupt;
  }
  return RunFailureKind::kWorkerLost;
}

/// A worker-side failure the job never even started on (malformed job,
/// rejected fault plan).
dist::TaskResult failedResult(std::uint64_t taskId, std::string error) {
  dist::TaskResult result;
  result.taskId = taskId;
  RunFailure& failure = result.outcome.failure.emplace();
  failure.attempts = 1;
  failure.error = std::move(error);
  return result;
}

bool unsettledOutcome(const TaskOutcome& outcome) {
  return !outcome.profile.has_value() && !outcome.failure.has_value() &&
         !outcome.skipped;
}

}  // namespace

dist::JobSpec makeJobSpec(const SweepConfig& config,
                          const workloads::WorkloadSpec& spec, int cores,
                          std::uint64_t taskId) {
  dist::JobSpec job;
  job.taskId = taskId;
  job.cores = cores;
  job.maxAttempts = std::max(1, config.maxAttempts);
  job.program = workloads::programName(spec.program);
  job.problemClass = workloads::problemClassName(spec.problemClass);
  job.threads = spec.threads;
  job.workloadSeed = spec.seed;
  job.machine = config.machine;
  job.schedQuantum = config.sim.sched.quantum;
  job.schedSwitchCost = config.sim.sched.contextSwitchCost;
  job.memPlacement = static_cast<std::uint8_t>(config.sim.memory.placement);
  job.memService = static_cast<std::uint8_t>(config.sim.memory.service);
  job.memSeed = config.sim.memory.seed;
  job.enableSampler = config.sim.enableSampler;
  job.samplerWindowNs = config.sim.samplerWindowNs;
  job.syncHorizon = config.sim.syncHorizon;
  job.cycleBudget = config.limits.cycleBudget;
  job.simSeed = config.sim.seed;
  if (!config.sim.faultPlan.empty()) {
    job.faultPlanJson = fault::toJson(config.sim.faultPlan);
  }
  return job;
}

TaskOutcome resultToOutcome(const dist::TaskResult& result, int cores) {
  TaskOutcome outcome;
  outcome.profile = result.outcome.profile;
  outcome.failure = result.outcome.failure;
  if (!outcome.profile.has_value() && !outcome.failure.has_value()) {
    RunFailure& failure = outcome.failure.emplace();
    failure.attempts = 1;
    failure.kind = RunFailureKind::kFrameCorrupt;
    failure.error = "task result carried neither profile nor failure";
  }
  if (outcome.failure.has_value()) {
    outcome.failure->cores = cores;
  }
  return outcome;
}

dist::TaskResult runSweepJob(const dist::JobSpec& job,
                             const IsolationConfig& isolation) {
  const std::optional<workloads::Program> program =
      workloads::parseProgram(job.program);
  const std::optional<workloads::ProblemClass> problemClass =
      workloads::parseProblemClass(job.problemClass);
  if (!program.has_value() || !problemClass.has_value() ||
      !workloads::classValidFor(*program, *problemClass) || job.cores <= 0 ||
      job.threads <= 0) {
    return failedResult(job.taskId, "malformed job: " + job.program + "." +
                                        job.problemClass + ", cores " +
                                        std::to_string(job.cores));
  }
  workloads::WorkloadSpec spec;
  spec.program = *program;
  spec.problemClass = *problemClass;
  spec.threads = job.threads;
  spec.seed = job.workloadSeed;

  sim::SimConfig sim;
  sim.sched.quantum = job.schedQuantum;
  sim.sched.contextSwitchCost = job.schedSwitchCost;
  sim.memory.placement = static_cast<mem::PlacementPolicy>(job.memPlacement);
  sim.memory.service = static_cast<mem::ServiceDiscipline>(job.memService);
  sim.memory.seed = job.memSeed;
  sim.enableSampler = job.enableSampler;
  sim.samplerWindowNs = job.samplerWindowNs;
  sim.syncHorizon = job.syncHorizon;
  sim.seed = job.simSeed;
  if (!job.faultPlanJson.empty()) {
    auto plan = fault::planFromJson(job.faultPlanJson);
    if (!plan) {
      return failedResult(job.taskId,
                          "fault plan rejected: " + plan.error().message());
    }
    sim.faultPlan = std::move(*plan);
  }
  if (sim.faultPlan.hasCrash() && !isolation.enabled) {
    // Running an injected crash in-process would take down the worker —
    // report it instead so the coordinator keeps its evidence.
    return failedResult(job.taskId,
                        "crash-injection fault plan requires an isolated "
                        "worker (run with isolation enabled)");
  }

  RunTaskContext context;
  context.machine = &job.machine;
  context.workload = &spec;
  context.sim = &sim;
  context.cycleBudget = job.cycleBudget;
  context.isolation = isolation;
  context.maxAttempts = std::max(1, job.maxAttempts);
  context.poolSize = 1;
  TaskOutcome outcome = runCoreCountTask(context, job.cores);
  if (!outcome.profile.has_value() && !outcome.failure.has_value()) {
    // The attempt loop only yields an empty outcome when a sweep-level
    // stop fired, which a worker never arms; keep the invariant anyway.
    return failedResult(job.taskId, "task produced no outcome");
  }
  dist::TaskResult result;
  result.taskId = job.taskId;
  result.outcome = std::move(outcome);
  return result;
}

DistributedPhaseOutcome runDistributedPhase(
    const SweepConfig& config, const workloads::WorkloadSpec& spec,
    const std::vector<int>& coreCounts, std::vector<TaskOutcome>& outcomes,
    const std::function<void(std::size_t index)>& commit) {
  DistributedPhaseOutcome phase;
  phase.stats.used = true;

  // Jobs only for tasks nothing has settled yet. The wire taskId is the
  // jobs-vector index (the coordinator leases by it); globalIndex maps it
  // back to the request-order slot, which the lease table's lowest-first
  // dispatch then mirrors.
  std::vector<dist::JobSpec> jobs;
  std::vector<std::size_t> globalIndex;
  for (std::size_t i = 0; i < coreCounts.size(); ++i) {
    if (!unsettledOutcome(outcomes[i])) {
      continue;
    }
    jobs.push_back(makeJobSpec(config, spec, coreCounts[i], jobs.size()));
    globalIndex.push_back(i);
  }
  if (jobs.empty()) {
    return phase;
  }

  const DistributedConfig& dc = config.distributed;
  dist::CoordinatorConfig cc;
  cc.host = dc.host;
  cc.port = dc.port;
  cc.graceWindowMs = toMs(dc.graceWindowSeconds);
  cc.lease.leaseTimeoutMs = toMs(dc.leaseSeconds);
  cc.lease.heartbeatTimeoutMs = toMs(dc.heartbeatTimeoutSeconds);
  cc.lease.speculativeAfterMs = toMs(dc.speculativeAfterSeconds);
  cc.lease.maxExpiries =
      dc.maxLeaseExpiries < 0 ? 0
                              : static_cast<std::uint32_t>(dc.maxLeaseExpiries);
  // Redispatch pacing follows the lease timeout: a backoff cap longer
  // than the lease itself just stretches recovery (a tightly-timed fleet
  // would abandon tasks at the default 5 s cap, not its own cadence).
  cc.lease.redispatchBackoff.cap =
      std::min<std::uint64_t>(cc.lease.redispatchBackoff.cap,
                              std::max<std::uint64_t>(
                                  cc.lease.leaseTimeoutMs, 1));
  cc.lease.redispatchBackoff.base = std::min<std::uint64_t>(
      cc.lease.redispatchBackoff.base,
      std::max<std::uint64_t>(cc.lease.redispatchBackoff.cap / 4, 1));
  cc.heartbeatIntervalMs = toMs(dc.heartbeatSeconds);
  cc.cancel = config.cancel;
  cc.onListening = dc.onListening;
  if (dc.chaos.enabled()) {
    cc.transportFactory = exec::chaos::chaosTransportFactory(dc.chaos);
  }
  cc.onResult = [&](const dist::TaskResult& result) {
    // First-wins already enforced by the lease table; this fires once per
    // settled task, in arrival order, on the coordinator thread.
    if (result.taskId >= globalIndex.size()) {
      return;
    }
    const std::size_t index = globalIndex[result.taskId];
    outcomes[index] = resultToOutcome(result, coreCounts[index]);
    ++phase.stats.fleetCompleted;
    commit(index);
  };
  dist::CoordinatorReport report = dist::runCoordinator(cc, jobs);

  phase.cancelled = report.cancelled;
  phase.stats.workersSeen = report.workersSeen;
  phase.stats.degradedToLocal = report.degradedToLocal;
  phase.stats.leases = report.stats;
  phase.stats.error = std::move(report.error);
  for (const dist::WorkerIncident& incident : report.incidents) {
    RunFailure failure;
    failure.kind = incidentKind(incident.kind);
    failure.error = incident.detail;
    failure.worker = incident.worker;
    failure.attempts = 1;
    if (incident.taskId.has_value() && *incident.taskId < globalIndex.size()) {
      const std::size_t index = globalIndex[*incident.taskId];
      failure.cores = coreCounts[index];
      // Fleet evidence is "recovered" once another dispatch (or the local
      // fallback, which runs after this) settled the task with a profile;
      // the merge loop re-checks, but arrival order is decided here.
      failure.recovered = outcomes[index].profile.has_value();
    }
    phase.incidents.push_back(std::move(failure));
  }
  return phase;
}

dist::WorkerReport runSweepWorker(const SweepWorkerOptions& options) {
  dist::WorkerOptions wo;
  wo.host = options.host;
  wo.port = options.port;
  wo.workerId = options.workerId;
  wo.maxConnectAttempts = options.maxConnectAttempts;
  wo.connectTimeoutMs = options.connectTimeoutMs;
  wo.reconnectBackoff = options.reconnectBackoff;
  wo.idleTimeoutMs = options.idleTimeoutMs;
  if (options.chaos.enabled()) {
    wo.transportFactory = exec::chaos::chaosTransportFactory(options.chaos);
  }
  wo.cancel = options.cancel;
  wo.straggleMs = options.straggleMs;
  wo.maxTasks = options.maxTasks;
  const IsolationConfig isolation = options.isolation;
  return dist::runWorker(wo, [isolation](const dist::JobSpec& job) {
    return runSweepJob(job, isolation);
  });
}

}  // namespace occm::analysis
