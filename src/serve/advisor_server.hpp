#pragma once

// The capacity-advisor service (DESIGN.md §15): a single-process,
// poll-loop TCP server answering speedup/efficiency/C(n) queries for
// (workload, topology, core range) with production-grade overload
// behavior.
//
// The robustness ladder, in order of escalation:
//  1. Bounded admission: every request that needs background work (a
//     model fit or tier-1 refinement) takes one slot of a bounded queue;
//     at capacity new requests shed with a typed kQueueFull — the server
//     never buffers unboundedly.
//  2. Deadlines on the wire: a request's deadlineMs becomes a Deadline
//     carried by its tier-1 sweep's cancellation token; simulator work
//     past it is cancelled at the event-loop boundary (never abandoned)
//     and the request falls back to a tier-0 answer flagged
//     kDeadlineMiss. The loop itself never scans for expired deadlines.
//  3. Graceful degradation: tier 0 answers from fitted ContentionModel
//     parameters in microseconds; tier 1 refines via analysis::runSweep
//     on the worker pool. When queue depth, deadline slack, or the EWMA
//     of tier-1 latency crosses its threshold (serve/degrade.hpp), the
//     server downgrades to tier-0-only and flags the response.
//  4. Warm LRU model cache with single-flight fitting: a thundering herd
//     on a cold (workload, topology) key fits once; everyone else parks
//     on the in-flight fit (serve/model_cache.hpp).
//  5. Drain: when the drain token fires (SIGTERM in the example binary)
//     the server stops accepting, sheds new requests with kDraining,
//     completes in-flight work, flushes responses, and returns cleanly.
//
// Single-threaded control plane on exec::FrameReactor (the fleet
// coordinator's reactor too), plus a worker pool for fits and tier-1
// sweeps; pool completions re-enter the loop through the reactor's
// wake(), so the loop never blocks on simulator work.

#include <cstdint>
#include <functional>
#include <string>

#include "common/cancellation.hpp"
#include "exec/frame_transport.hpp"
#include "serve/degrade.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"
#include "sim/machine_sim.hpp"

namespace occm::serve {

struct AdvisorServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port goes to onListening
  /// Overload-ladder thresholds (queue bound, degradation rungs).
  DegradeConfig degrade;
  /// Fitted-model LRU capacity (distinct (workload, topology) keys).
  std::size_t cacheCapacity = 16;
  /// Worker pool size for fits and tier-1 sweeps. <= 0 resolves via
  /// exec::resolveWorkerCount (OCCM_SWEEP_WORKERS / hardware).
  int workers = 2;
  /// Simulation parameters shared by fit and refinement sweeps.
  sim::SimConfig sim;
  /// Workload seed for every measurement run (part of the model's
  /// identity; not on the wire — one server serves one seed universe).
  std::uint64_t workloadSeed = 2011;
  /// Attempts per measurement run (failure isolation inside sweeps).
  int maxAttempts = 2;
  /// Drain trigger. requestStop() is async-signal-safe, so a SIGTERM
  /// handler may own the source (examples/advisor_server.cpp does).
  CancellationToken drain;
  /// Slowloris / idle-socket guard: a connection that has never decoded
  /// a request, or sits on a half-finished frame, and makes no byte
  /// progress for this long is dropped (connectionsStalled). Established
  /// idle clients with no partial frame are left alone — keep-alive
  /// between queries is legitimate. 0 = off.
  std::uint64_t readProgressTimeoutMs = 10'000;
  /// Admission cap on live connections; accepts beyond it are closed
  /// immediately and counted in connectionsRefused.
  std::size_t maxConnections = 256;
  /// Builds each accepted connection's framed transport (chaos injection
  /// point). Null = plain socket transport.
  exec::TransportFactory transportFactory;
  /// Fired once with the bound port (ephemeral-port tests and scripts).
  std::function<void(int boundPort)> onListening;
  /// Fired once on the loop thread when the drain token is observed (the
  /// listen socket is already closed); everything decoded afterwards
  /// sheds kDraining. Tests use it to mark the drain boundary without
  /// polling.
  std::function<void()> onDraining;
  /// Test hooks, forwarded to the fit / tier-1 sweeps' beforeRun (called
  /// on pool threads). Never called after runAdvisorServer returns.
  std::function<void(int cores, int attempt)> beforeFitRun;
  std::function<void(int cores, int attempt)> beforeTier1Run;
};

/// Ground-truth counters of one server run — the numbers the overload
/// tests reconcile against client-observed responses.
struct AdvisorServerStats {
  std::uint64_t connectionsAccepted = 0;
  /// Accepts closed at the maxConnections admission cap.
  std::uint64_t connectionsRefused = 0;
  /// Connections dropped by the read-progress (slowloris) guard.
  std::uint64_t connectionsStalled = 0;
  std::uint64_t requestsDecoded = 0;
  std::uint64_t responsesSent = 0;
  std::uint64_t tier0Served = 0;  ///< kOk answers with tier == 0
  std::uint64_t tier1Served = 0;  ///< kOk answers with tier == 1
  std::uint64_t degraded = 0;     ///< kOk answers flagged degraded
  std::uint64_t shedQueueFull = 0;
  std::uint64_t shedDeadlineInfeasible = 0;
  std::uint64_t shedDraining = 0;
  std::uint64_t shedBadRequest = 0;
  /// Tier-1 refinements cancelled mid-run by their deadline (each one
  /// also counts under `degraded` via its tier-0 fallback answer).
  std::uint64_t deadlineMisses = 0;
  std::uint64_t fitFailures = 0;  ///< fits that returned a FitError
  /// Peak pending jobs — never exceeds degrade.queueCapacity.
  std::uint64_t maxQueueDepth = 0;
  ModelCacheStats cache;
  double tier1EwmaMs = 0.0;  ///< final EWMA value (0 when never seeded)
  /// True when the run ended via the drain token with all in-flight work
  /// completed and flushed.
  bool drained = false;
  /// Non-empty on listen/bind failure; nothing was served.
  std::string error;
};

/// Runs the server until the drain token fires (or listen fails).
/// Blocking; never throws on network misbehavior or bad request bytes —
/// corrupt frames drop the connection, malformed requests shed typed.
[[nodiscard]] AdvisorServerStats runAdvisorServer(
    const AdvisorServerConfig& config);

}  // namespace occm::serve
