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
  failure.cores = cores;
  failure.poolSize = context.poolSize;
  for (int attempt = 0; attempt < context.maxAttempts; ++attempt) {
    // The deadline covers the whole attempt, beforeRun included — a hook
    // that hangs is exactly the overrun it exists for.
    const Deadline deadline = context.wallSeconds > 0.0
                                  ? Deadline::after(context.wallSeconds)
                                  : Deadline{};
    const CancellationToken cancel =
        context.sweepCancel.withDeadline(deadline);
    try {
      if (context.beforeRun) {
        context.beforeRun(cores, attempt);
      }
      sim::SimConfig simConfig = *context.sim;
      // Retry under a perturbed seed: if the failure was input-shaped
      // (a pathological arrival pattern), a different deterministic
      // stream can clear it; attempt 0 keeps the configured seed.
      constexpr std::uint64_t kSeedStep = 0x9E3779B97F4A7C15ULL;
      simConfig.seed =
          context.sim->seed + static_cast<std::uint64_t>(attempt) * kSeedStep;
      simConfig.cycleBudget = context.cycleBudget;
      if (context.isolation.enabled) {
        // Isolated attempt: the child rebuilds the workload and simulator
        // from the same seeds (bit-identical inputs, bit-identical
        // profile); the parent-side token cannot cross the fork, so the
        // supervisor polls it and SIGKILLs the child instead of the
        // simulator unwinding cooperatively. The deterministic cycle
        // budget still aborts inside the child.
        exec::ProcessRunnerConfig runnerConfig;
        runnerConfig.limits.memoryBytes = context.isolation.memoryBytes;
        runnerConfig.limits.cpuSeconds = context.isolation.cpuSeconds;
        runnerConfig.stderrTailBytes = context.isolation.stderrTailBytes;
        runnerConfig.cancel = cancel;
        exec::ChildOutcome child = exec::runInChild(
            [&context, &simConfig, cores] {
              workloads::WorkloadInstance instance =
                  workloads::makeWorkload(*context.workload);
              sim::MachineSim simulator(*context.machine, simConfig);
              return simulator.run(instance.threads, cores, instance.name);
            },
            runnerConfig);
        failure.attempts = attempt + 1;
        switch (child.status) {
          case exec::ChildStatus::kOk:
            if (attempt > 0) {
              failure.recovered = true;
              outcome.failure = failure;
            }
            outcome.profile = std::move(child.profile);
            return outcome;
          case exec::ChildStatus::kException:
            // Same retry semantics as an in-process throw; clear any
            // crash detail a previous attempt left behind.
            failure.error = std::move(child.error);
            failure.kind = RunFailureKind::kException;
            failure.signal = 0;
            failure.rlimit.clear();
            failure.stderrTail.clear();
            break;
          case exec::ChildStatus::kAborted: {
            failure.error = std::move(child.error);
            const bool overran =
                child.abortReason == AbortReason::kCycleBudget ||
                deadline.expired();
            failure.kind = overran ? RunFailureKind::kTimeout
                                   : RunFailureKind::kCancelled;
            outcome.failure = failure;
            return outcome;
          }
          case exec::ChildStatus::kKilled:
            // The supervisor SIGKILLed on the token: same deadline /
            // sweep-stop classification as a cooperative unwind.
            failure.error = std::move(child.error);
            failure.kind = deadline.expired() ? RunFailureKind::kTimeout
                                              : RunFailureKind::kCancelled;
            outcome.failure = failure;
            return outcome;
          case exec::ChildStatus::kCrash:
            // Crash containment: keep the evidence (signal, rlimit,
            // stderr tail) and retry under the perturbed seed, exactly
            // like an exception.
            failure.error = std::move(child.error);
            failure.kind = RunFailureKind::kCrash;
            failure.signal = child.signal;
            failure.rlimit = std::move(child.rlimit);
            failure.stderrTail = std::move(child.stderrTail);
            break;
        }
      } else {
        simConfig.cancel = cancel;
        // A fresh instance per task (not a shared reset one): building
        // from the same spec seed yields bit-identical streams, and
        // private streams are what lets tasks run concurrently at all.
        workloads::WorkloadInstance instance =
            workloads::makeWorkload(*context.workload);
        sim::MachineSim simulator(*context.machine, simConfig);
        perf::RunProfile profile =
            simulator.run(instance.threads, cores, instance.name);
        failure.attempts = attempt + 1;
        if (attempt > 0) {
          failure.recovered = true;
          outcome.failure = failure;
        }
        outcome.profile = std::move(profile);
        return outcome;
      }
    } catch (const RunAborted& e) {
      // Lifecycle outcomes are terminal: a timed-out run would time out
      // again and a cancelled sweep wants to wind down, so neither is
      // retried. kCycleBudget and a fired wall deadline are both
      // "overran its limits"; everything else the token carried is the
      // sweep-wide stop.
      failure.error = e.what();
      failure.attempts = attempt + 1;
      const bool overran =
          e.reason() == AbortReason::kCycleBudget || deadline.expired();
      failure.kind =
          overran ? RunFailureKind::kTimeout : RunFailureKind::kCancelled;
      outcome.failure = failure;
      return outcome;
    } catch (const std::exception& e) {
      failure.error = e.what();
      failure.attempts = attempt + 1;
      failure.kind = RunFailureKind::kException;
      failure.signal = 0;
      failure.rlimit.clear();
      failure.stderrTail.clear();
    }
    if (context.sweepCancel.stopRequested()) {
      // Stop requested between attempts: don't burn retries on a sweep
      // that is winding down.
      failure.kind = RunFailureKind::kCancelled;
      outcome.failure = failure;
      return outcome;
    }
  }
  outcome.failure = failure;
  return outcome;
}

}  // namespace occm::analysis
