#pragma once

// Experiment harness: runs (program, class, machine, active-cores) grids
// through the simulator and converts profiles into the model's measured
// points — the glue used by the benches, examples and integration tests.

#include <functional>
#include <string>
#include <vector>

#include "analysis/sweep_state.hpp"
#include "analysis/sweep_task.hpp"
#include "common/cancellation.hpp"
#include "core/contention_model.hpp"
#include "exec/chaos/chaos_transport.hpp"
#include "exec/distributed/lease.hpp"
#include "exec/thread_pool.hpp"
#include "perf/run_profile.hpp"
#include "sim/machine_sim.hpp"
#include "topology/machine_spec.hpp"
#include "workloads/workload.hpp"

namespace occm::analysis {

/// Parallel execution of a sweep's independent (core count) runs.
///
/// Determinism guarantee: every pool size — including 1 — produces
/// bit-identical SweepResult contents (profiles, failures, checkpoint
/// files after completion). Each task builds its own workload instance
/// and simulator from the sweep's seeds, shares no mutable state with its
/// siblings, and results merge back in core-count (request) order; the
/// pool only changes wall-clock time. See DESIGN.md §9.
struct ParallelSweepConfig {
  /// Worker threads for the pool. 1 runs every task inline on the calling
  /// thread (no pool is created); 0 (the default) resolves through
  /// exec::resolveWorkerCount — the OCCM_SWEEP_WORKERS environment
  /// variable, then hardware concurrency.
  int workers = 0;
};

// IsolationConfig and SweepLimits live in analysis/sweep_task.hpp (shared
// with the distributed worker path) and are re-exported here unchanged.

/// Distributed execution of a sweep over a TCP worker fleet (DESIGN.md
/// §13). Off by default: the sweep runs on the local pool exactly as
/// before. When listen = true, runSweep binds a coordinator socket,
/// shards the unfinished core counts across connected workers as leases,
/// and merges results in request order — bit-identical to a serial
/// in-process sweep regardless of fleet size, worker deaths, or
/// re-dispatch order. If no worker is alive for graceWindowSeconds, the
/// remaining tasks degrade to the local pool so the sweep always
/// completes.
struct DistributedConfig {
  /// Master switch: bind, accept workers, shard the grid.
  bool listen = false;
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (reported via onListening).
  int port = 0;
  /// How long to wait with no live worker before degrading the remaining
  /// tasks to the local pool.
  double graceWindowSeconds = 5.0;
  /// Lease deadline per dispatched task; expiry re-dispatches with capped
  /// exponential backoff and deterministic jitter.
  double leaseSeconds = 60.0;
  /// Ping cadence toward each connected worker.
  double heartbeatSeconds = 1.0;
  /// A worker silent this long is evicted and its leases re-queued.
  double heartbeatTimeoutSeconds = 15.0;
  /// A lease older than this may be speculatively re-dispatched to an
  /// idle worker (tail-straggler hedge); first valid result wins.
  double speculativeAfterSeconds = 10.0;
  /// A task whose lease expired this many times is handed back to the
  /// local pool instead of re-dispatched forever.
  int maxLeaseExpiries = 16;
  /// Called once with the bound port (useful with port = 0).
  std::function<void(int port)> onListening;
  /// Seeded network-fault schedule applied to every accepted worker
  /// connection (chaos drills; see exec/chaos). Empty plan = plain
  /// transports, zero overhead.
  exec::chaos::ChaosConfig chaos;
};

/// What the distributed phase did — empty/default when it did not run.
struct DistributedStats {
  /// True when a coordinator was started (config.distributed.listen).
  bool used = false;
  /// Distinct worker ids that completed the handshake.
  std::size_t workersSeen = 0;
  /// Tasks settled by fleet results (the rest restored or run locally).
  std::size_t fleetCompleted = 0;
  /// True when the grace window expired and remaining tasks ran locally.
  bool degradedToLocal = false;
  /// Lease-table counters (expiries, re-dispatches, speculation, ...).
  exec::dist::LeaseStats leases;
  /// Non-empty when the coordinator could not start (bind/listen
  /// failure); the whole sweep then ran on the local pool.
  std::string error;
};

struct SweepConfig {
  topology::MachineSpec machine;
  workloads::WorkloadSpec workload;  ///< threads <= 0 => machine cores
  sim::SimConfig sim;
  /// Core counts to run; empty => 1 .. machine cores.
  std::vector<int> coreCounts;
  /// Attempts per core count. A failed run (any escaping exception) is
  /// retried with a perturbed seed up to maxAttempts times total; what
  /// still fails becomes a RunFailure instead of aborting the sweep.
  int maxAttempts = 2;
  /// When non-empty, completed runs are checkpointed here after every
  /// core count (atomic tmp+rename, analysis/sweep_state) and a matching
  /// checkpoint is restored on the next call, skipping finished runs. A
  /// checkpoint written under a different configuration — anything that
  /// changes what a completed run measures — is ignored.
  std::string checkpointPath;
  /// Test/diagnostics hook, called before every attempt; an exception it
  /// throws is treated exactly like a failed run. With parallel.workers
  /// != 1 it is invoked concurrently from pool workers — it must be
  /// thread-safe (and must not assume call order across core counts).
  std::function<void(int cores, int attempt)> beforeRun;
  /// Pool configuration; the default resolves to OCCM_SWEEP_WORKERS or
  /// hardware concurrency. Output is bit-identical for every pool size.
  ParallelSweepConfig parallel;
  /// Per-run wall/cycle limits (see SweepLimits). Defaults are unlimited.
  SweepLimits limits;
  /// Per-attempt process isolation and resource budgets (see
  /// IsolationConfig). Off by default.
  IsolationConfig isolation;
  /// TCP coordinator/worker fleet execution (see DistributedConfig). Off
  /// by default; when on, unfinished tasks are sharded across connected
  /// workers and the local pool becomes the grace-window fallback.
  DistributedConfig distributed;
  /// Whole-sweep graceful stop. Every in-flight run polls the token at
  /// its cancellation point, and a Deadline the token carries stops the
  /// whole sweep the same way. On a stop, runs not yet started are left
  /// pending — no failure record, so a resume re-attempts them —
  /// in-flight runs unwind as RunFailure{kind = kCancelled}, completed
  /// work is already checkpointed, and runSweep returns normally with
  /// SweepResult::stopped set. The source's requestStop() is
  /// async-signal-safe, so a SIGINT handler may own it.
  CancellationToken cancel;
};

struct SweepResult {
  std::vector<perf::RunProfile> profiles;  ///< completed runs, in order
  /// Core counts that failed at least once (recovered or not); a core
  /// count with `recovered == false` has no profile.
  std::vector<RunFailure> failures;
  /// Runs restored from the checkpoint instead of simulated. A restored
  /// profile is the checkpointed one in full (everything but the trace).
  std::size_t restoredRuns = 0;
  /// Resolved pool size the sweep ran with (1 = serial); reported by the
  /// accessor diagnostics so a partially-merged parallel sweep names the
  /// execution mode that produced it.
  int requestedWorkers = 1;
  /// Core counts the sweep was asked to run, in request order.
  std::vector<int> requestedCoreCounts;
  /// True when the sweep's cancellation token fired: some core counts may
  /// be pending, and the checkpoint (when configured) holds every
  /// completed run for a later resume.
  bool stopped = false;
  /// Non-empty when a configured checkpoint existed but could not be
  /// trusted (CheckpointError::message()); the bad file was quarantined
  /// to `<path>.corrupt` and the sweep started fresh.
  std::string checkpointWarning;
  /// End-of-sweep pool telemetry (tasks and busy time per worker, peak
  /// queue depth) captured just before the pool is torn down. workers is empty on the serial path and when the
  /// observability layer is compiled out. Host-time only — two sweeps with
  /// identical simulated output may differ here.
  exec::ThreadPoolStats poolStats;
  /// Distributed-phase telemetry (dist.used == false when the sweep ran
  /// purely locally). Host-time only, like poolStats.
  DistributedStats dist;

  /// Measured points (cores, total cycles) for the model.
  [[nodiscard]] std::vector<model::MeasuredPoint> points() const;

  /// Requested core counts that have no completed profile (runs that
  /// failed permanently, or were never merged). Empty for a fully
  /// successful sweep.
  [[nodiscard]] std::vector<int> pendingCoreCounts() const;

  /// Profile for an exact core count; throws a ContractViolation naming
  /// the core counts actually present, the ones still pending and the
  /// pool size if it was not run.
  [[nodiscard]] const perf::RunProfile& at(int cores) const;

  /// Measured omega(n) against the sweep's C(1) (requires a 1-core run).
  [[nodiscard]] std::vector<double> omegas() const;

  /// Human-readable health summary: completed/restored/failed runs.
  [[nodiscard]] std::string diagnostics() const;
};

/// Runs one configuration.
[[nodiscard]] perf::RunProfile runOnce(const topology::MachineSpec& machine,
                                       const workloads::WorkloadSpec& workload,
                                       int activeCores,
                                       const sim::SimConfig& simConfig = {});

/// Runs the full sweep. Each core count gets its own freshly built
/// workload instance (bit-identical across builds for a fixed spec seed);
/// threads default to the machine's cores, matching the paper's
/// fixed-threads / varying-cores protocol.
///
/// Parallel by default: independent (core count) runs execute on a
/// config.parallel pool (OCCM_SWEEP_WORKERS / hardware concurrency) and
/// merge back in request order, bit-identical to workers = 1 — the runs
/// share no mutable state and every RNG stream is derived per task from
/// the configured seeds, so the pool size only changes wall-clock time.
///
/// Failure isolating: a run that throws is retried (seed-perturbed) up
/// to config.maxAttempts times and then recorded as a RunFailure; the
/// sweep always completes with whatever survived, and no exception from
/// an individual run escapes. With config.checkpointPath set, completed
/// runs persist across interrupted invocations (checkpoint writes are
/// serialized behind a mutex and deterministic in content).
[[nodiscard]] SweepResult runSweep(const SweepConfig& config);

/// Subset of measured points at the given core counts (model fit inputs).
[[nodiscard]] std::vector<model::MeasuredPoint> pointsAt(
    const SweepResult& sweep, const std::vector<int>& coreCounts);

}  // namespace occm::analysis
