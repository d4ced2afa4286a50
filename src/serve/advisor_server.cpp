#include "serve/advisor_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/experiment.hpp"
#include "core/speedup.hpp"
#include "exec/frame_reactor.hpp"
#include "exec/thread_pool.hpp"
#include "topology/presets.hpp"
#include "workloads/problem.hpp"

namespace occm::serve {

namespace {

/// One client session's protocol state, carried in the reactor's
/// connection table.
struct Session {
  /// Zero marks a connection the read-progress guard treats as suspect.
  std::uint64_t decodedRequests = 0;
};

using Reactor = exec::FrameReactor<Session>;
using Connection = Reactor::Connection;

/// A request resolved against the preset/workload catalogues.
struct Resolved {
  topology::MachineSpec machine;
  model::MachineShape shape;
  workloads::WorkloadSpec workload;
  int coreMin = 1;
  int coreMax = 1;
};

/// A request's wire identity, its resolution (validated at admission) and
/// admission evidence, everything needed to answer it once its background
/// work (fit and/or tier-1 sweep) lands.
struct PendingRequest : Resolved {
  std::uint64_t serverId = 0;
  /// Reactor connection id; ids are never reused, so once the client is
  /// reaped the answer simply finds no address.
  std::uint64_t connId = 0;
  AdvisorRequest request;
  ModelKey key;
  Deadline deadline;  ///< unarmed when deadlineMs == 0
  bool wantTier1 = false;
  /// Degradation verdict at admission (kept for the final response when
  /// the request was downgraded before any work started).
  bool degraded = false;
  DegradeReason degradeReason = DegradeReason::kNone;
  bool cacheHit = false;
  std::uint32_t queueDepthAtAdmission = 0;
  /// The fitted model this request will answer from, pinned at submit
  /// time so LRU eviction mid-sweep cannot orphan the answer.
  std::optional<model::ContentionModel> model;
};

/// What a pool job posts back to the loop (then wake()s the reactor).
struct Completion {
  enum class Kind : std::uint8_t { kFit, kTier1 };
  Kind kind = Kind::kFit;
  // kFit:
  ModelKey modelKey;
  bool fitOk = false;
  analysis::AdvisorModel fitted;
  std::string fitError;
  // kTier1:
  std::uint64_t serverId = 0;
  analysis::SweepResult sweep;
  double elapsedMs = 0.0;
};

/// Validates a request against the preset/workload catalogues. A failure
/// is a typed kBadRequest shed, never a throw.
Expected<Resolved, std::string> resolveRequest(const AdvisorRequest& request,
                                               std::uint64_t workloadSeed) {
  if (request.protocolVersion != kServeProtocolVersion) {
    return makeUnexpected("protocol version " +
                          std::to_string(request.protocolVersion) + " != " +
                          std::to_string(kServeProtocolVersion));
  }
  Resolved out;
  const auto machine = topology::presetByName(request.machine);
  if (!machine.has_value()) {
    std::string known;
    for (const std::string& name : topology::presetNames()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    return makeUnexpected("unknown machine preset '" + request.machine +
                          "' (known: " + known + ")");
  }
  out.machine = *machine;
  out.shape = model::shapeOf(out.machine);
  const auto program = workloads::parseProgram(request.program);
  const auto problemClass = workloads::parseProblemClass(request.problemClass);
  if (!program.has_value() || !problemClass.has_value() ||
      !workloads::classValidFor(*program, *problemClass)) {
    return makeUnexpected("unknown workload '" + request.program + "." +
                          request.problemClass + "'");
  }
  out.workload.program = *program;
  out.workload.problemClass = *problemClass;
  out.workload.threads = 0;  // resolved to machine cores by the harness
  out.workload.seed = workloadSeed;
  const int total = out.shape.totalCores();
  out.coreMin = request.coreMin == 0 ? 1 : request.coreMin;
  out.coreMax = request.coreMax == 0 ? total : request.coreMax;
  if (out.coreMin < 1 || out.coreMax < out.coreMin || out.coreMax > total) {
    return makeUnexpected("core range [" + std::to_string(request.coreMin) +
                          ", " + std::to_string(request.coreMax) +
                          "] invalid for a " + std::to_string(total) +
                          "-core machine");
  }
  if (!std::isfinite(request.efficiencyThreshold) ||
      request.efficiencyThreshold <= 0.0 ||
      request.efficiencyThreshold > 1.0) {
    return makeUnexpected(
        std::string("efficiency threshold must be in (0, 1]"));
  }
  return out;
}

/// One tier-0 prediction row straight from the fitted model.
AdvisorRow predictedRow(const model::ContentionModel& m, int n) {
  AdvisorRow row;
  row.cores = n;
  row.cycles = m.predictCycles(n);
  row.omega = m.predictOmega(n);
  row.speedup = model::predictSpeedup(m, n);
  row.efficiency = model::predictEfficiency(m, n);
  row.measured = false;
  return row;
}

void fillAdvice(AdvisorResponse& response, const model::ContentionModel& m,
                double efficiencyThreshold) {
  const model::SpeedupAdvice advice =
      model::adviseCores(m, efficiencyThreshold);
  response.bestCores = advice.bestCores;
  response.bestSpeedup = advice.bestSpeedup;
  response.efficientCores = advice.efficientCores;
}

}  // namespace

AdvisorServerStats runAdvisorServer(const AdvisorServerConfig& config) {
  AdvisorServerStats stats;

  // Declared before the pool: pool threads wake() it until the pool
  // is joined.
  Reactor reactor(config.maxConnections, config.transportFactory);
  const auto bound = reactor.listen(config.host, config.port);
  if (!bound) {
    stats.error = bound.error();
    return stats;
  }
  if (config.onListening) {
    config.onListening(*bound);
  }
  const auto nowMs = [&reactor] { return reactor.nowMs(); };

  ModelCache cache(config.cacheCapacity);
  LatencyEwma ewma(config.degrade.ewmaAlpha);

  std::unordered_map<std::uint64_t, PendingRequest> pending;  // by serverId
  /// Requests parked on an in-flight fit, by ModelKey::str().
  std::unordered_map<std::string, std::vector<std::uint64_t>> parked;
  std::uint64_t nextServerId = 1;
  std::size_t queueDepth = 0;  // admitted requests holding a slot
  bool draining = false;

  std::mutex completionsMutex;
  std::vector<Completion> completions;

  // Outstanding pool jobs are bounded by the admission queue
  // (degrade.queueCapacity), so the pool's own queue needs no bound.
  auto pool = std::make_unique<exec::ThreadPool>(config.workers);

  auto postCompletion = [&](Completion&& done) {
    {
      std::lock_guard<std::mutex> lock(completionsMutex);
      completions.push_back(std::move(done));
    }
    reactor.wake();
  };

  auto sendResponse = [&](std::uint64_t connId,
                          const AdvisorResponse& response) {
    ServeMessage message;
    message.kind = ServeMessage::Kind::kResponse;
    message.response = response;
    Connection* conn = reactor.find(connId);
    if (conn == nullptr || !conn->send(encodeServeMessage(message))) {
      return;  // client vanished or the send failed: no address left
    }
    ++stats.responsesSent;
  };

  auto sendShed = [&](std::uint64_t connId, std::uint64_t requestId,
                      ShedReason reason, const std::string& detail) {
    AdvisorResponse response;
    response.requestId = requestId;
    response.status = ResponseStatus::kShed;
    response.shedReason = reason;
    response.queueDepth = static_cast<std::uint32_t>(queueDepth);
    response.error = detail;
    switch (reason) {
      case ShedReason::kQueueFull: ++stats.shedQueueFull; break;
      case ShedReason::kDeadlineInfeasible:
        ++stats.shedDeadlineInfeasible;
        break;
      case ShedReason::kDraining: ++stats.shedDraining; break;
      case ShedReason::kBadRequest: ++stats.shedBadRequest; break;
      case ShedReason::kNone: break;
    }
    sendResponse(connId, response);
  };

  /// Serves a finished (kOk) answer and releases the request's slot when
  /// it held one.
  auto finishRequest = [&](PendingRequest& p, AdvisorResponse&& response,
                           bool heldSlot) {
    response.requestId = p.request.requestId;
    response.queueDepth = p.queueDepthAtAdmission;
    response.cacheHit = p.cacheHit;
    if (response.status == ResponseStatus::kOk) {
      if (response.tier == 0) {
        ++stats.tier0Served;
      } else {
        ++stats.tier1Served;
      }
      if (response.degraded) {
        ++stats.degraded;
      }
    }
    sendResponse(p.connId, response);
    if (heldSlot && queueDepth > 0) {
      --queueDepth;
    }
  };

  auto tier0Answer = [&](const PendingRequest& p,
                         const model::ContentionModel& m, bool degraded,
                         DegradeReason reason) {
    AdvisorResponse response;
    response.status = ResponseStatus::kOk;
    response.tier = 0;
    response.degraded = degraded;
    response.degradeReason = reason;
    for (int n = p.coreMin; n <= p.coreMax; ++n) {
      response.rows.push_back(predictedRow(m, n));
    }
    fillAdvice(response, m, p.request.efficiencyThreshold);
    return response;
  };

  /// The admission ladder (serve/degrade.hpp) over current conditions.
  auto decide = [&](const PendingRequest& p, std::size_t depth,
                    bool drainingNow, bool modelWarm) {
    DegradeInputs inputs;
    inputs.queueDepth = depth;
    inputs.draining = drainingNow;
    inputs.deadlineArmed = p.deadline.armed();
    inputs.deadlineSlackMs = p.deadline.armed()
                                 ? p.deadline.remainingSeconds() * 1'000.0
                                 : 0.0;
    inputs.ewmaSeeded = ewma.seeded();
    inputs.tier1EwmaMs = ewma.value();
    inputs.preference = p.request.tier;
    inputs.modelWarm = modelWarm;
    return decideAdmission(config.degrade, inputs);
  };

  auto submitFit = [&](const PendingRequest& p) {
    analysis::AdvisorFitConfig fit;
    fit.machine = p.machine;
    fit.workload = p.workload;
    fit.sim = config.sim;
    fit.maxAttempts = config.maxAttempts;
    fit.workers = 1;  // serial inside the task; parallelism across requests
    fit.beforeRun = config.beforeFitRun;
    const ModelKey key = p.key;
    (void)pool->submit([&postCompletion, fit = std::move(fit), key]() {
      Completion done;
      done.kind = Completion::Kind::kFit;
      done.modelKey = key;
      auto fitted = analysis::fitAdvisorModel(fit);
      if (fitted) {
        done.fitOk = true;
        done.fitted = std::move(*fitted);
      } else {
        done.fitError = fitted.error().describe();
      }
      postCompletion(std::move(done));
    });
  };

  auto submitTier1 = [&](PendingRequest& p) {
    analysis::SweepConfig sweep;
    sweep.machine = p.machine;
    sweep.workload = p.workload;
    sweep.sim = config.sim;
    sweep.coreCounts.clear();
    for (int n = p.coreMin; n <= p.coreMax; ++n) {
      sweep.coreCounts.push_back(n);
    }
    sweep.maxAttempts = config.maxAttempts;
    sweep.parallel.workers = 1;
    // The request's deadline rides on the sweep token; the simulator
    // observes its expiry at the event-loop boundary.
    sweep.cancel = CancellationToken{}.withDeadline(p.deadline);
    sweep.beforeRun = config.beforeTier1Run;
    const std::uint64_t serverId = p.serverId;
    (void)pool->submit([&postCompletion, sweep = std::move(sweep),
                        serverId]() {
      const auto t0 = std::chrono::steady_clock::now();
      Completion done;
      done.kind = Completion::Kind::kTier1;
      done.serverId = serverId;
      done.sweep = analysis::runSweep(sweep);
      done.elapsedMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      postCompletion(std::move(done));
    });
  };

  auto handleRequest = [&](Connection& conn, const AdvisorRequest& request) {
    auto resolved = resolveRequest(request, config.workloadSeed);
    if (!resolved) {
      sendShed(conn.id, request.requestId, ShedReason::kBadRequest,
               resolved.error());
      return;
    }
    PendingRequest p;
    p.serverId = nextServerId++;
    p.connId = conn.id;
    p.request = request;
    static_cast<Resolved&>(p) = std::move(*resolved);
    p.key = ModelKey{request.program, request.problemClass, request.machine};
    if (request.deadlineMs != 0) {
      p.deadline =
          Deadline::after(static_cast<double>(request.deadlineMs) / 1'000.0);
    }
    p.queueDepthAtAdmission = static_cast<std::uint32_t>(queueDepth);

    const auto cached = cache.lookup(p.key);
    p.cacheHit = cached.has_value();

    const AdmissionDecision decision =
        decide(p, queueDepth, draining, cached.has_value());

    if (decision.action == AdmissionDecision::Action::kShed) {
      sendShed(conn.id, request.requestId, decision.shedReason,
               std::string("shed: ") + toString(decision.shedReason));
      return;
    }
    p.wantTier1 = decision.action == AdmissionDecision::Action::kServeTier1;
    p.degraded = decision.degraded;
    p.degradeReason = decision.degradeReason;

    if (!p.wantTier1 && cached.has_value()) {
      // Warm tier 0: answered inline, no queue slot, microseconds.
      AdvisorResponse response =
          tier0Answer(p, *cached, p.degraded, p.degradeReason);
      finishRequest(p, std::move(response), /*heldSlot=*/false);
      return;
    }

    // Everything else needs background work and therefore a slot.
    ++queueDepth;
    stats.maxQueueDepth = std::max<std::uint64_t>(stats.maxQueueDepth,
                                                  queueDepth);
    const std::uint64_t serverId = p.serverId;
    if (cached.has_value()) {
      p.model = *cached;
      pending.emplace(serverId, std::move(p));
      submitTier1(pending.at(serverId));
      return;
    }
    const std::string key = p.key.str();
    const bool owner = cache.beginFit(p.key);
    pending.emplace(serverId, std::move(p));
    parked[key].push_back(serverId);
    if (owner) {
      submitFit(pending.at(serverId));
    }
  };

  auto handleFitCompletion = [&](Completion& done) {
    if (!done.fitOk) {
      ++stats.fitFailures;
    }
    // Publish (or, on failure, release the single-flight claim so the
    // next request retries — a transient measurement failure must not
    // poison the key forever).
    cache.completeFit(done.modelKey, done.fitOk, done.fitted.model);
    std::vector<std::uint64_t> waiters;
    const auto parkedIt = parked.find(done.modelKey.str());
    if (parkedIt != parked.end()) {
      waiters = std::move(parkedIt->second);
      parked.erase(parkedIt);
    }
    for (const std::uint64_t serverId : waiters) {
      const auto it = pending.find(serverId);
      if (it == pending.end()) {
        continue;
      }
      PendingRequest& p = it->second;
      const model::ContentionModel& m = done.fitted.model;
      AdvisorResponse response;
      if (!done.fitOk) {
        response.status = ResponseStatus::kError;
        response.error = "model fit failed: " + done.fitError;
      } else if (p.deadline.armed() && p.deadline.expired()) {
        // The deadline died while the fit ran: tier-0 fallback, flagged.
        ++stats.deadlineMisses;
        response = tier0Answer(p, m, true, DegradeReason::kDeadlineMiss);
      } else if (!p.wantTier1) {
        response = tier0Answer(p, m, p.degraded, p.degradeReason);
      } else {
        // Re-run the degradation rungs with post-fit conditions (the EWMA
        // or queue may have crossed a threshold while the fit ran): queue
        // depth sans self, and not draining, since drain completes work
        // that was already admitted.
        const AdmissionDecision redecide =
            decide(p, queueDepth > 0 ? queueDepth - 1 : 0, false, true);
        if (redecide.action == AdmissionDecision::Action::kServeTier1) {
          p.model = m;
          submitTier1(p);
          continue;
        }
        response =
            tier0Answer(p, m, redecide.degraded, redecide.degradeReason);
      }
      finishRequest(p, std::move(response), /*heldSlot=*/true);
      pending.erase(it);
    }
  };

  auto handleTier1Completion = [&](Completion& done) {
    const auto it = pending.find(done.serverId);
    if (it == pending.end()) {
      return;
    }
    PendingRequest& p = it->second;
    // The model was pinned on the request at submit time, so LRU eviction
    // mid-sweep cannot orphan the answer.
    const model::ContentionModel& m = *p.model;
    AdvisorResponse response;
    if (done.sweep.stopped) {
      // Deadline fired mid-refinement; cooperative cancellation unwound
      // the run at the event-loop boundary. Tier-0 fallback, flagged.
      ++stats.deadlineMisses;
      response = tier0Answer(p, m, true, DegradeReason::kDeadlineMiss);
    } else {
      ewma.sample(done.elapsedMs);
      stats.tier1EwmaMs = ewma.value();
      response.tier = 1;
      // Measured rows where the sweep completed the core count; model
      // predictions fill the holes (a permanently failed run must not
      // sink the whole answer).
      std::map<int, double> measured;
      for (const model::MeasuredPoint& point : done.sweep.points()) {
        measured[point.cores] = point.totalCycles;
      }
      const double c1 = m.measuredC1();
      for (int n = p.coreMin; n <= p.coreMax; ++n) {
        const auto found = measured.find(n);
        if (found == measured.end() || c1 <= 0.0) {
          response.rows.push_back(predictedRow(m, n));
          continue;
        }
        AdvisorRow row;
        row.cores = n;
        row.cycles = found->second;
        row.omega = (found->second - c1) / c1;
        row.speedup = static_cast<double>(n) * c1 / found->second;
        row.efficiency = row.speedup / static_cast<double>(n);
        row.measured = true;
        response.rows.push_back(row);
      }
      fillAdvice(response, m, p.request.efficiencyThreshold);
    }
    finishRequest(p, std::move(response), /*heldSlot=*/true);
    pending.erase(it);
  };

  auto drainCompletions = [&]() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completionsMutex);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      if (done.kind == Completion::Kind::kFit) {
        handleFitCompletion(done);
      } else {
        handleTier1Completion(done);
      }
    }
  };

  auto onEvent = [&](Connection& conn, exec::ReactorEvent event,
                     std::string& payload) {
    if (event != exec::ReactorEvent::kFrame) {
      // EOF is a half-close: the peer may still be reading, so in-flight
      // answers stay deliverable (see the reap rule in the loop). Corrupt
      // streams and I/O errors were already dropped by the reactor.
      return;
    }
    auto decoded = decodeServeMessage(payload);
    if (!decoded || decoded->kind != ServeMessage::Kind::kRequest) {
      // Undecodable, or a response flowing client -> server: a confused
      // peer. Drop the connection.
      conn.dead = true;
      return;
    }
    ++conn.state.decodedRequests;
    ++stats.requestsDecoded;
    if (draining) {
      sendShed(conn.id, decoded->request.requestId, ShedReason::kDraining,
               "server draining");
    } else {
      handleRequest(conn, decoded->request);
    }
  };

  // --- Event loop ---------------------------------------------------------
  for (;;) {
    // Drain trigger: stop accepting, shed new work, finish what's in
    // flight, then leave.
    if (!draining && config.drain.valid() && config.drain.stopRequested()) {
      draining = true;
      reactor.stopListening();
      if (config.onDraining) {
        config.onDraining();
      }
    }
    drainCompletions();

    if (draining && queueDepth == 0 && pending.empty()) {
      stats.drained = true;
      break;
    }

    // Read-progress guard: a connection that never produced a request,
    // or is sitting on a half-finished frame, must keep bytes flowing —
    // a slowloris dribbling one byte per poll tick, or a socket that
    // connected and went silent, is dropped here instead of holding its
    // slot forever. Idle established clients (no partial frame, at least
    // one decoded request) are exempt: keep-alive is legitimate.
    const std::uint64_t now = nowMs();
    for (auto& [id, conn] : reactor.connections()) {
      if (conn.dead) {
        continue;
      }
      const bool suspicious = conn.transport->partialBytes() > 0 ||
                              conn.state.decodedRequests == 0;
      if (config.readProgressTimeoutMs != 0 && !conn.readEof && suspicious &&
          now >= conn.lastProgressMs + config.readProgressTimeoutMs) {
        conn.dead = true;
        ++stats.connectionsStalled;
        continue;
      }
      // Half-closed peers linger only while an in-flight answer still
      // addresses them; after that there is nothing left to deliver.
      if (conn.readEof &&
          std::none_of(pending.begin(), pending.end(), [&](const auto& entry) {
            return entry.second.connId == id;
          })) {
        conn.dead = true;
      }
    }

    if (!reactor.turn(std::nullopt, onEvent)) {
      stats.error = reactor.lastError();
      break;
    }
  }

  // Teardown: the pool destructor drains queued tasks and joins; any
  // stragglers post completions nobody reads (the queue outlives the
  // pool by construction order). The reactor closes every socket.
  pool.reset();
  stats.connectionsAccepted = reactor.accepted();
  stats.connectionsRefused = reactor.refused();

  stats.cache = cache.stats();
  if (ewma.seeded()) {
    stats.tier1EwmaMs = ewma.value();
  }
  return stats;
}

}  // namespace occm::serve
