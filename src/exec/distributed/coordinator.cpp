#include "exec/distributed/coordinator.hpp"

#include <vector>

#include "common/error.hpp"
#include "exec/frame_reactor.hpp"

namespace occm::exec::dist {

namespace {

/// One worker session's protocol state, carried in the reactor's
/// connection table. Sends are small (the largest frame is one kAssign)
/// and pushed through a bounded retry loop, so the loop never parks on a
/// single slow peer for long.
struct Session {
  std::string workerId;  ///< empty until the handshake completes
  bool handshaken = false;
  std::uint64_t lastPingSentMs = 0;
  std::uint64_t pingId = 0;
  /// Tasks currently assigned on this connection (a worker runs one task
  /// at a time; duplicates via speculation go to *other* workers).
  std::vector<std::uint64_t> assigned;
};

using Reactor = FrameReactor<Session>;
using Connection = Reactor::Connection;

}  // namespace

CoordinatorReport runCoordinator(const CoordinatorConfig& config,
                                 const std::vector<JobSpec>& jobs) {
  OCCM_REQUIRE_MSG(static_cast<bool>(config.onResult),
                   "coordinator needs an onResult sink");
  CoordinatorReport report;
  Reactor reactor(config.maxConnections, config.transportFactory);
  const auto bound = reactor.listen(config.host, config.port);
  if (!bound) {
    report.error = bound.error();
    report.degradedToLocal = true;
    return report;
  }
  if (config.onListening) {
    config.onListening(*bound);
  }
  const auto nowMs = [&reactor] { return reactor.nowMs(); };
  auto& conns = reactor.connections();

  LeaseTable leases(config.lease, jobs.size());
  std::vector<bool> settled(jobs.size(), false);

  auto loseWorker = [&](Connection& conn, const std::string& detail,
                        WorkerIncident::Kind kind) {
    conn.dead = true;
    const std::string name = conn.state.handshaken
                                 ? conn.state.workerId
                                 : "peer fd " + std::to_string(conn.fd);
    const std::vector<std::uint64_t> torn =
        conn.state.handshaken
            ? leases.workerLeft(conn.state.workerId, nowMs())
            : std::vector<std::uint64_t>{};
    for (std::uint64_t taskId : torn) {
      report.incidents.push_back({kind, name, detail, taskId});
    }
    if (torn.empty()) {
      report.incidents.push_back({kind, name, detail, std::nullopt});
    }
  };

  auto tryAssign = [&](Connection& conn) {
    // One outstanding task per worker: the worker runs tasks serially and
    // keeping its queue empty is what makes lease re-dispatch meaningful.
    if (conn.dead || !conn.state.handshaken || !conn.state.assigned.empty()) {
      return;
    }
    const std::optional<std::uint64_t> taskId =
        leases.nextAssignment(conn.state.workerId, nowMs());
    if (!taskId.has_value()) {
      return;
    }
    WireMessage assign;
    assign.kind = WireMessage::Kind::kAssign;
    assign.job = jobs[*taskId];
    if (conn.send(encodeMessage(assign))) {
      conn.state.assigned.push_back(*taskId);
    } else {
      loseWorker(conn, "send failed: " + std::string("assign"),
                 WorkerIncident::Kind::kWorkerLost);
    }
  };

  auto handleMessage = [&](Connection& conn, const WireMessage& message) {
    if (!conn.state.handshaken) {
      if (message.kind != WireMessage::Kind::kHello ||
          message.protocolVersion != kProtocolVersion ||
          message.workerId.empty()) {
        WireMessage reject;
        reject.kind = WireMessage::Kind::kReject;
        reject.reason =
            message.kind != WireMessage::Kind::kHello
                ? "expected hello"
                : (message.workerId.empty()
                       ? "empty worker id"
                       : "protocol version " +
                             std::to_string(message.protocolVersion) +
                             " != " + std::to_string(kProtocolVersion));
        conn.send(encodeMessage(reject));
        loseWorker(conn, reject.reason, WorkerIncident::Kind::kHandshake);
        return;
      }
      // A reconnecting worker supersedes its old connection: the stale fd
      // (if any) will EOF on its own; membership is keyed by worker id.
      conn.state.workerId = message.workerId;
      conn.state.handshaken = true;
      ++report.workersSeen;
      leases.workerJoined(conn.state.workerId, nowMs());
      WireMessage welcome;
      welcome.kind = WireMessage::Kind::kWelcome;
      conn.send(encodeMessage(welcome));
      tryAssign(conn);
      return;
    }
    leases.heartbeat(conn.state.workerId, nowMs());
    switch (message.kind) {
      case WireMessage::Kind::kResult: {
        const std::uint64_t taskId = message.result.taskId;
        if (taskId >= jobs.size()) {
          loseWorker(conn, "result for unknown task id " +
                               std::to_string(taskId),
                     WorkerIncident::Kind::kFrameCorrupt);
          return;
        }
        // A profile measured at another core count would land in this
        // task's slot and be checkpointed there.
        const std::optional<perf::RunProfile>& profile =
            message.result.outcome.profile;
        if (profile.has_value() && profile->activeCores != jobs[taskId].cores) {
          loseWorker(conn, "result for task " + std::to_string(taskId) +
                               " ran on " +
                               std::to_string(profile->activeCores) +
                               " cores, the job asked for " +
                               std::to_string(jobs[taskId].cores),
                     WorkerIncident::Kind::kFrameCorrupt);
          return;
        }
        std::erase(conn.state.assigned, taskId);
        if (leases.completeTask(taskId)) {
          settled[taskId] = true;
          config.onResult(message.result);
        }
        tryAssign(conn);
        break;
      }
      case WireMessage::Kind::kHello:
        // A second hello on a live session is a protocol violation.
        loseWorker(conn, "unexpected hello on an established session",
                   WorkerIncident::Kind::kHandshake);
        break;
      default:
        // A pong's only job is the heartbeat above. Anything else is noise
        // from a confused peer: drop it, keep the session.
        break;
    }
  };

  auto onEvent = [&](Connection& conn, ReactorEvent event,
                     std::string& payload) {
    if (event == ReactorEvent::kClosed) {
      loseWorker(conn, "connection closed", WorkerIncident::Kind::kWorkerLost);
      return;
    }
    if (event != ReactorEvent::kFrame) {
      loseWorker(conn, conn.transport->lastError(),
                 event == ReactorEvent::kCorrupt
                     ? WorkerIncident::Kind::kFrameCorrupt
                     : WorkerIncident::Kind::kWorkerLost);
      return;
    }
    auto decoded = decodeMessage(payload);
    if (!decoded) {
      loseWorker(conn, decoded.error().message(),
                 WorkerIncident::Kind::kFrameCorrupt);
      return;
    }
    handleMessage(conn, *decoded);
  };

  std::uint64_t lastWorkerPresenceMs = 0;
  for (;;) {
    const std::uint64_t now = nowMs();
    if (config.cancel.valid() && config.cancel.stopRequested()) {
      report.cancelled = true;
      break;
    }
    if (leases.drained()) {
      break;
    }
    if (!conns.empty()) {
      lastWorkerPresenceMs = now;
    }
    // Degrade to local execution when no worker has shown up within the
    // grace window — or when the whole fleet died and stayed gone for a
    // full window (otherwise unfinished leases would spin forever).
    const bool anyWorkerEver = reactor.accepted() > 0;
    if ((!anyWorkerEver && now >= config.graceWindowMs) ||
        (anyWorkerEver && conns.empty() &&
         now >= lastWorkerPresenceMs + config.graceWindowMs)) {
      report.degradedToLocal = true;
      break;
    }

    // Ticks: expiries and evictions, surfaced as worker-lost incidents.
    const LeaseTable::TickEvents events = leases.tick(now);
    for (const auto& [taskId, worker] : events.expired) {
      WorkerIncident incident;
      incident.kind = WorkerIncident::Kind::kWorkerLost;
      incident.worker = worker;
      incident.detail = "lease expired";
      incident.taskId = taskId;
      report.incidents.push_back(std::move(incident));
      // Release the task from whichever connection still holds it. A
      // worker can be live and heartbeating while the assign (or its
      // result) was lost on the wire; without this, that connection
      // stays "busy" forever, the task never re-enters assignment, and
      // the fleet wedges with pending work it will never finish. The
      // worker itself stays: if a stale result does arrive later,
      // completeTask de-duplicates it.
      for (auto& [id, conn] : conns) {
        std::erase(conn.state.assigned, taskId);
      }
    }
    for (const std::string& worker : events.evictedWorkers) {
      for (auto& [id, conn] : conns) {
        if (conn.state.handshaken && conn.state.workerId == worker) {
          conn.dead = true;
        }
      }
      report.incidents.push_back({WorkerIncident::Kind::kWorkerLost, worker,
                                  "heartbeat timeout; worker evicted",
                                  std::nullopt});
    }

    // Handshake deadline: a socket that connects and then never
    // completes the hello (half-open peer, partitioned worker, port
    // scanner) is torn down instead of occupying a slot forever.
    if (config.handshakeTimeoutMs != 0) {
      for (auto& [id, conn] : conns) {
        if (!conn.dead && !conn.state.handshaken &&
            now >= conn.acceptedAtMs + config.handshakeTimeoutMs) {
          loseWorker(conn, "handshake timeout",
                     WorkerIncident::Kind::kHandshake);
        }
      }
    }

    // Heartbeats and (re-)assignment for idle workers.
    for (auto& [id, conn] : conns) {
      if (conn.dead || !conn.state.handshaken) {
        continue;
      }
      if (config.heartbeatIntervalMs != 0 &&
          now >= conn.state.lastPingSentMs + config.heartbeatIntervalMs) {
        WireMessage ping;
        ping.kind = WireMessage::Kind::kPing;
        ping.pingId = ++conn.state.pingId;
        ping.pingSentNs = reactor.nowNs();
        if (conn.send(encodeMessage(ping))) {
          conn.state.lastPingSentMs = now;
        } else {
          loseWorker(conn, "send failed: ping",
                     WorkerIncident::Kind::kWorkerLost);
        }
      }
      tryAssign(conn);
    }

    // The nearest caller deadline is the backoff expiry; the reactor caps
    // the wait at its liveness floor for cancellation and the grace window.
    std::optional<std::uint64_t> untilDeadline;
    if (const auto eligible = leases.nextEligibleMs();
        eligible.has_value() && *eligible > now) {
      untilDeadline = *eligible - now;
    }
    if (!reactor.turn(untilDeadline, onEvent)) {
      report.error = reactor.lastError();
      break;
    }
  }

  // Drain: cancellation tears leases down; completion/degradation just
  // says goodbye. Workers treat kShutdown as "disconnect now".
  if (report.cancelled) {
    leases.cancelAll();
  }
  WireMessage shutdown;
  shutdown.kind = WireMessage::Kind::kShutdown;
  shutdown.reason = report.cancelled ? "cancelled" : "sweep complete";
  for (auto& [id, conn] : conns) {
    if (conn.state.handshaken && !conn.dead) {
      conn.send(encodeMessage(shutdown));
    }
  }

  for (std::uint64_t id = 0; id < settled.size(); ++id) {
    if (settled[id]) {
      report.settledTasks.push_back(id);
    }
  }
  report.connectionsRefused = reactor.refused();
  report.stats = leases.stats();
  return report;
}

}  // namespace occm::exec::dist
