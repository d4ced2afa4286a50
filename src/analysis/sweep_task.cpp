#include "analysis/sweep_task.hpp"

#include <utility>

#include "exec/process_runner.hpp"

namespace occm::analysis {

std::optional<TaskOutcome> restoredOutcome(const SweepCheckpoint& restoredState,
                                           int cores) {
  const perf::RunProfile* profile = restoredState.find(cores);
  if (profile == nullptr) {
    return std::nullopt;
  }
  TaskOutcome outcome;
  outcome.profile = *profile;
  outcome.restored = true;
  return outcome;
}

TaskOutcome runCoreCountTask(const RunTaskContext& context, int cores) {
  TaskOutcome outcome;
  if (context.sweepCancel.stopRequested()) {
    // Graceful stop before the first attempt: stay pending (a resume
    // re-attempts this core count), record nothing.
    outcome.skipped = true;
    return outcome;
  }
  RunFailure failure;
  for (int attempt = 0; attempt < context.maxAttempts; ++attempt) {
    // The deadline covers the whole attempt, beforeRun included — a hook
    // that hangs is exactly the overrun it exists for.
    const Deadline deadline = context.wallSeconds > 0.0
                                  ? Deadline::after(context.wallSeconds)
                                  : Deadline{};
    const CancellationToken cancel =
        context.sweepCancel.withDeadline(deadline);
    sim::SimConfig simConfig = *context.sim;
    // Retry under a perturbed seed: if the failure was input-shaped
    // (a pathological arrival pattern), a different deterministic
    // stream can clear it; attempt 0 keeps the configured seed.
    constexpr std::uint64_t kSeedStep = 0x9E3779B97F4A7C15ULL;
    simConfig.seed =
        context.sim->seed + static_cast<std::uint64_t>(attempt) * kSeedStep;
    simConfig.cycleBudget = context.cycleBudget;
    // A fresh instance per attempt (not a shared reset one): building
    // from the same spec seed yields bit-identical streams, and private
    // streams are what lets tasks run concurrently at all.
    const auto simulate = [&context, &simConfig, cores] {
      workloads::WorkloadInstance instance =
          workloads::makeWorkload(*context.workload);
      sim::MachineSim simulator(*context.machine, simConfig);
      return simulator.run(instance.threads, cores, instance.name);
    };
    exec::RunOutcome attemptOutcome;
    try {
      if (context.beforeRun) {
        context.beforeRun(cores, attempt);
      }
      if (context.isolation.enabled) {
        // The child rebuilds the workload and simulator from the same
        // seeds (bit-identical inputs, bit-identical profile); the token
        // cannot cross the fork, so the supervisor polls it and SIGKILLs
        // the child instead of the simulator unwinding cooperatively.
        // The deterministic cycle budget still aborts inside the child.
        exec::ProcessRunnerConfig runnerConfig;
        runnerConfig.limits.memoryBytes = context.isolation.memoryBytes;
        runnerConfig.limits.cpuSeconds = context.isolation.cpuSeconds;
        runnerConfig.stderrTailBytes = context.isolation.stderrTailBytes;
        runnerConfig.cancel = cancel;
        attemptOutcome = exec::runInChild(simulate, runnerConfig);
      } else {
        simConfig.cancel = cancel;
        attemptOutcome.profile = simulate();
      }
    } catch (...) {
      attemptOutcome.failure = exec::caughtFailure();
    }
    if (attemptOutcome.profile.has_value()) {
      if (attempt > 0) {
        failure.attempts = attempt + 1;
        failure.recovered = true;
        outcome.failure = std::move(failure);
      }
      outcome.profile = std::move(attemptOutcome.profile);
      return outcome;
    }
    // The attempt's own record replaces the last one, so no crash detail
    // outlives the attempt that produced it.
    failure = std::move(*attemptOutcome.failure);
    failure.cores = cores;
    failure.poolSize = context.poolSize;
    failure.attempts = attempt + 1;
    // Lifecycle outcomes are terminal: a timed-out run would time out
    // again and a cancelled sweep wants to wind down, so neither is
    // retried. A stop that fired after the attempt's deadline expired is
    // that deadline's doing.
    if (failure.kind == RunFailureKind::kCancelled && deadline.expired()) {
      failure.kind = RunFailureKind::kTimeout;
    }
    if (failure.kind == RunFailureKind::kTimeout ||
        failure.kind == RunFailureKind::kCancelled) {
      break;
    }
    if (context.sweepCancel.stopRequested()) {
      // Stop requested between attempts: don't burn retries on a sweep
      // that is winding down.
      failure.kind = RunFailureKind::kCancelled;
      break;
    }
  }
  outcome.failure = std::move(failure);
  return outcome;
}

}  // namespace occm::analysis
