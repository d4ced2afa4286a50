#pragma once

// The execution of ONE sweep task — one (core count), restored from a
// checkpoint or attempted (with seed-perturbed retries) until a profile
// or a permanent failure — extracted from the sweep loop so the local
// pool path and the distributed worker path run byte-identical code.
// That sharing is the heart of the fleet's determinism guarantee: a
// worker across a socket produces the same TaskOutcome bits as the same
// task run in-process, so the deterministic request-order merge cannot
// tell them apart.
//
// One attempt loop classifies every attempt once. An attempt runs here
// or in a forked child (exec::runInChild) and ends as an exec::RunOutcome
// either way — in-process exceptions go through the same caughtFailure
// the child uses. Then one rule applies: a kCancelled attempt whose
// deadline expired is a kTimeout; a timeout or a cancel ends the task;
// an exception or a crash is retried under a perturbed seed.
//
// Lifecycle control is one token: each attempt arms its wall deadline
// (RunTaskContext::wallSeconds) onto the sweep-wide stop token, and the
// simulator (in-process) or the fork supervisor (isolated) polls it. The
// worker path runs with neither (the coordinator's lease expiry is the
// hang recovery across a fleet).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "analysis/sweep_state.hpp"
#include "common/cancellation.hpp"
#include "perf/run_profile.hpp"
#include "sim/machine_sim.hpp"
#include "topology/machine_spec.hpp"
#include "workloads/workload.hpp"

namespace occm::analysis {

/// Per-attempt process isolation and resource budgets (exec/process_runner).
/// Off by default: every attempt then runs in-process, exactly as before.
/// When enabled, each attempt forks a child that rebuilds the workload and
/// simulator from the same seeds and ships its RunProfile back over a
/// CRC-checked pipe frame — so a segfault, abort, or rlimit death takes
/// out one attempt (recorded as RunFailure{kind = kCrash}, retried and
/// checkpointed like an exception) instead of the whole sweep, and
/// successful runs stay bit-identical to the in-process path at any pool
/// size. Cost: a fork per attempt, and RunProfile::trace is not shipped
/// back (traces stay a single-process feature). Crash-injection fault
/// plans (FaultPlan::hasCrash()) require this mode.
struct IsolationConfig {
  bool enabled = false;
  /// RLIMIT_AS per attempt; allocation failure under the budget is
  /// reported as kCrash with rlimit = "address-space". 0 = no limit.
  std::uint64_t memoryBytes = 0;
  /// RLIMIT_CPU per attempt; overrun dies on SIGXCPU, reported as kCrash
  /// with rlimit = "cpu". 0 = no limit.
  std::uint64_t cpuSeconds = 0;
  /// Bytes of the child's stderr tail captured into RunFailure records.
  std::size_t stderrTailBytes = 4096;
};

/// Per-run lifecycle limits. A run that exceeds either bound is recorded
/// as RunFailure{kind = kTimeout} (not retried, never checkpointed) and
/// the sweep continues with the remaining core counts.
struct SweepLimits {
  /// Wall-clock deadline per attempt, armed on the attempt's cancellation
  /// token (so it costs no thread). 0 = unlimited. Which runs time out
  /// under a wall deadline is machine-dependent; the *completed* runs
  /// stay bit-identical to a serial sweep of the same subset.
  double wallSeconds = 0.0;
  /// Simulated-cycle budget per attempt (sim::SimConfig::cycleBudget).
  /// Fully deterministic: the same budget aborts the same run at the same
  /// event on every machine and pool size. 0 = unlimited.
  Cycles cycleBudget = 0;
};

/// Everything one (core count) task produces; merged in request order.
/// `failure` is a recovered retry's record or the permanent one.
struct TaskOutcome : exec::RunOutcome {
  bool restored = false;
  /// Sweep-level stop observed before the task started: no attempt was
  /// made, no failure is recorded, and the core count stays pending so a
  /// resumed sweep re-attempts it.
  bool skipped = false;
};

/// The outcome of a checkpointed run: the profile the checkpoint stored,
/// bit for bit, marked restored. nullopt when the checkpoint has no profile
/// for this core count.
[[nodiscard]] std::optional<TaskOutcome> restoredOutcome(
    const SweepCheckpoint& restoredState, int cores);

/// Inputs of one task run, independent of how the task was delivered
/// (local pool or fleet assignment).
struct RunTaskContext {
  const topology::MachineSpec* machine = nullptr;
  /// Workload spec with threads already resolved (> 0).
  const workloads::WorkloadSpec* workload = nullptr;
  /// Base sim config; each attempt copies it and perturbs the seed.
  const sim::SimConfig* sim = nullptr;
  Cycles cycleBudget = 0;
  /// Wall deadline per attempt, beforeRun included (SweepLimits).
  double wallSeconds = 0.0;
  IsolationConfig isolation;
  int maxAttempts = 1;
  /// Recorded into failure records (1 = serial / worker-local).
  int poolSize = 1;
  /// Sweep-wide stop; checked before the first attempt and between
  /// retries, and polled inside every attempt with the attempt's
  /// deadline added.
  CancellationToken sweepCancel;
  /// Test/diagnostics hook, called before every attempt; an exception it
  /// throws is treated exactly like a failed run.
  std::function<void(int cores, int attempt)> beforeRun;
};

/// Runs one core count to completion: attempts (with seed-perturbed
/// retries) until a profile or a permanent failure. Builds a private
/// workload instance and simulator per attempt, so concurrent tasks share
/// nothing mutable; no exception escapes.
[[nodiscard]] TaskOutcome runCoreCountTask(const RunTaskContext& context,
                                           int cores);

}  // namespace occm::analysis
