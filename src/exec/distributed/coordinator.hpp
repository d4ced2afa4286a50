#pragma once

// The fleet's control plane: a single-threaded loop on exec::FrameReactor
// (the advisor server's reactor too) that accepts worker connections,
// runs the versioned handshake, leases tasks out of a LeaseTable, pings
// for liveness, collects results, and re-dispatches work lost to dead,
// hung, or straggling workers.
//
// Generic by design (exec sits below analysis): the coordinator moves
// opaque JobSpecs and TaskResults; the analysis glue builds the jobs,
// interprets the results, and owns checkpointing through the onResult
// callback — which fires in arrival order, on the coordinator's thread,
// exactly once per task (first valid result wins; duplicates from
// speculative or expired leases are counted and dropped).
//
// Failure taxonomy: everything the *fleet* does wrong is coordinator-
// local and surfaces as a WorkerIncident (worker-lost / handshake /
// frame-corrupt) — never on the wire, never conflated with the four ways
// a run itself can fail.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.hpp"
#include "exec/distributed/lease.hpp"
#include "exec/distributed/protocol.hpp"
#include "exec/frame_transport.hpp"

namespace occm::exec::dist {

/// Coordinator-local failure evidence (the kinds analysis maps onto
/// RunFailureKind::kWorkerLost / kHandshake / kFrameCorrupt).
struct WorkerIncident {
  enum class Kind : std::uint8_t {
    kWorkerLost,    ///< connection died / lease expired / worker evicted
    kHandshake,     ///< version mismatch or malformed hello
    kFrameCorrupt,  ///< stream failed frame validation mid-session
  };
  Kind kind = Kind::kWorkerLost;
  std::string worker;  ///< worker id, or "peer fd N" pre-handshake
  std::string detail;
  /// Task whose lease was lost, when the incident names one.
  std::optional<std::uint64_t> taskId;
};

struct CoordinatorConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port goes to onListening
  /// How long to wait for the *first* worker before giving up and letting
  /// the caller degrade to local execution. 0 = don't wait (local only
  /// unless a worker races the window).
  std::uint64_t graceWindowMs = 5'000;
  LeaseConfig lease;
  /// Ping cadence per worker; pongs feed liveness.
  std::uint64_t heartbeatIntervalMs = 1'000;
  /// A connection that has not completed the hello within this window is
  /// dropped (handshake incident). Guards against half-open sockets piling
  /// up under partitions and reconnect storms. 0 = no deadline.
  std::uint64_t handshakeTimeoutMs = 10'000;
  /// Admission cap: accepts beyond this many live connections are closed
  /// immediately and counted in CoordinatorReport::connectionsRefused —
  /// a reconnect storm degrades the storm, not the fleet.
  std::size_t maxConnections = 256;
  /// Builds each accepted connection's framed transport (chaos injection
  /// point). Null = plain socket transport.
  TransportFactory transportFactory;
  /// Graceful stop: leases are torn down, every worker gets kShutdown,
  /// and run() returns with cancelled = true. The caller's checkpoint is
  /// already current (onResult committed each arrival).
  CancellationToken cancel;
  /// Fired once the listen socket is bound (test hook for ephemeral
  /// ports and for scripts that need the port before workers launch).
  std::function<void(int boundPort)> onListening;
  /// Result sink; see class comment for ordering guarantees. Required.
  std::function<void(const TaskResult&)> onResult;
};

struct CoordinatorReport {
  /// Task ids that settled through the fleet (results already delivered
  /// through onResult). Unsettled ids are the caller's to run locally.
  std::vector<std::uint64_t> settledTasks;
  LeaseStats stats;
  std::vector<WorkerIncident> incidents;
  /// Distinct workers that completed the handshake over the run.
  std::size_t workersSeen = 0;
  /// Accepts closed at the admission cap (see maxConnections).
  std::uint64_t connectionsRefused = 0;
  bool cancelled = false;
  /// No worker arrived within the grace window; nothing was dispatched.
  bool degradedToLocal = false;
  /// Listen/bind failure (report.error non-empty); nothing ran.
  std::string error;
};

/// Runs the fleet over `jobs` until every task settles, is abandoned, or
/// the token fires. Blocking; single-threaded; never throws on network
/// misbehavior (incidents are data).
[[nodiscard]] CoordinatorReport runCoordinator(
    const CoordinatorConfig& config, const std::vector<JobSpec>& jobs);

}  // namespace occm::exec::dist
