// End-to-end overload tests for the capacity-advisor server, driven over
// real TCP with no timing guesses: every ordering is pinned by hooks
// (gates in beforeFitRun/beforeTier1Run, futures from onListening /
// onDraining); the one sleep waits out a test-side deadline that expires
// no earlier than the server's. The flagship test walks the
// whole robustness ladder in one run — queue fill -> typed shed, deadline
// mid-tier-1 -> cooperative cancellation + tier-0 fallback, drain ->
// kDraining shed — and then reconciles every AdvisorServerStats counter
// against the client-observed responses.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.hpp"
#include "exec/frame_transport.hpp"
#include "serve/advisor_server.hpp"
#include "serve/protocol.hpp"

namespace occm::serve {
namespace {

using namespace std::chrono_literals;

/// A gate pool-thread hooks block on while closed. Tracks arrivals so
/// tests can wait for "the job reached the hook" without sleeping.
class Gate {
 public:
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    openCv_.notify_all();
  }
  /// Hook body: records the arrival, then waits until the gate is open.
  void pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrivals_;
    arrivalCv_.notify_all();
    openCv_.wait(lock, [this] { return open_; });
  }
  [[nodiscard]] int arrivals() {
    std::lock_guard<std::mutex> lock(mutex_);
    return arrivals_;
  }
  [[nodiscard]] bool awaitArrivals(int atLeast,
                                   std::chrono::milliseconds timeout = 30s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return arrivalCv_.wait_for(lock, timeout,
                               [&] { return arrivals_ >= atLeast; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable openCv_;
  std::condition_variable arrivalCv_;
  bool open_ = true;
  int arrivals_ = 0;
};

/// Framed client over one TCP connection. Responses may interleave (the
/// server answers as work lands), so receives are matched by requestId.
class TestClient {
 public:
  [[nodiscard]] bool connect(int port) {
    auto fd = exec::connectTcp("127.0.0.1", port, 5'000);
    if (!fd) {
      return false;
    }
    transport_ = exec::makeSocketTransport(*fd);
    return true;
  }

  [[nodiscard]] bool send(const AdvisorRequest& request) {
    ServeMessage message;
    message.kind = ServeMessage::Kind::kRequest;
    message.request = request;
    return transport_->sendFrame(encodeServeMessage(message));
  }

  /// Blocks (with a generous deadline, returning early as soon as the
  /// frame lands) until the response for `requestId` arrives; responses
  /// for other ids are stashed for later calls.
  [[nodiscard]] std::optional<AdvisorResponse> recvFor(
      std::uint64_t requestId, int timeoutMs = 60'000) {
    for (;;) {
      const auto stashed = stash_.find(requestId);
      if (stashed != stash_.end()) {
        AdvisorResponse out = std::move(stashed->second);
        stash_.erase(stashed);
        return out;
      }
      std::string payload;
      if (transport_->recvFrame(payload, timeoutMs) !=
          exec::FrameTransport::RecvStatus::kFrame) {
        return std::nullopt;
      }
      auto decoded = decodeServeMessage(payload);
      if (!decoded || decoded->kind != ServeMessage::Kind::kResponse) {
        return std::nullopt;
      }
      stash_.emplace(decoded->response.requestId,
                     std::move(decoded->response));
    }
  }

  [[nodiscard]] exec::FrameTransport& transport() { return *transport_; }

 private:
  std::unique_ptr<exec::FrameTransport> transport_;
  std::unordered_map<std::uint64_t, AdvisorResponse> stash_;
};

AdvisorRequest makeRequest(std::uint64_t id, const std::string& program = "EP",
                           TierPreference tier = TierPreference::kAuto,
                           std::uint32_t deadlineMs = 0) {
  AdvisorRequest request;
  request.requestId = id;
  request.program = program;
  request.problemClass = "S";
  request.machine = "test-numa4";
  request.deadlineMs = deadlineMs;
  request.tier = tier;
  return request;
}

/// The acceptance run: one server, one connection, every rung of the
/// ladder, full ground-truth reconciliation at the end.
TEST(AdvisorServer, OverloadLadderEndToEnd) {
  Gate fitGate;
  Gate tier1Gate;
  fitGate.close();  // the herd must pile up before the fit finishes

  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  std::promise<void> drainingPromise;
  auto drainingFuture = drainingPromise.get_future();
  CancellationSource drain;

  AdvisorServerConfig config;
  config.degrade.queueCapacity = 3;
  config.degrade.degradeQueueDepth = 2;
  config.degrade.minTier1SlackMs = 5.0;
  config.degrade.maxTier1EwmaMs = 0.0;  // exercised in its own test
  config.workers = 1;                   // serial pool: deterministic order
  config.drain = drain.token();
  config.onListening = [&](int port) { portPromise.set_value(port); };
  config.onDraining = [&] { drainingPromise.set_value(); };
  config.beforeFitRun = [&](int, int) { fitGate.pass(); };
  config.beforeTier1Run = [&](int, int) { tier1Gate.pass(); };

  AdvisorServerStats stats;
  std::thread server([&] { stats = runAdvisorServer(config); });

  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  TestClient client;
  ASSERT_TRUE(client.connect(portFuture.get()));

  // --- Rung 0: malformed requests shed typed, never crash. ------------
  AdvisorRequest bad = makeRequest(1, "XX");
  ASSERT_TRUE(client.send(bad));
  auto r1 = client.recvFor(1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->status, ResponseStatus::kShed);
  EXPECT_EQ(r1->shedReason, ShedReason::kBadRequest);
  EXPECT_NE(r1->error.find("XX"), std::string::npos);

  // --- Rungs 1+3+4: a cold thundering herd against a gated fit. -------
  // req2 claims the fit; req3 coalesces; req4 trips the queue-depth
  // degradation rung at admission; req5 finds the queue full and sheds.
  ASSERT_TRUE(client.send(makeRequest(2)));
  ASSERT_TRUE(client.send(makeRequest(3)));
  ASSERT_TRUE(client.send(makeRequest(4)));
  ASSERT_TRUE(client.send(makeRequest(5)));
  auto r5 = client.recvFor(5);
  ASSERT_TRUE(r5.has_value());
  EXPECT_EQ(r5->status, ResponseStatus::kShed);
  EXPECT_EQ(r5->shedReason, ShedReason::kQueueFull);
  EXPECT_EQ(r5->queueDepth, 3u);  // load feedback for client backoff

  // Release the fit. Waiters resolve in arrival order, re-deciding
  // against post-fit load: req2 sees two others still queued and
  // degrades; req3 then refines at tier 1; req4 keeps its admission
  // verdict (degraded at a depth of 2).
  fitGate.open();
  auto r2 = client.recvFor(2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->status, ResponseStatus::kOk);
  EXPECT_EQ(r2->tier, 0);
  EXPECT_TRUE(r2->degraded);
  EXPECT_EQ(r2->degradeReason, DegradeReason::kQueueDepth);
  EXPECT_FALSE(r2->cacheHit);
  EXPECT_EQ(r2->queueDepth, 0u);
  ASSERT_EQ(r2->rows.size(), 4u);  // default range: 1..totalCores
  for (const AdvisorRow& row : r2->rows) {
    EXPECT_FALSE(row.measured);  // tier 0: analytic predictions
    EXPECT_GT(row.cycles, 0.0);
    EXPECT_GT(row.speedup, 0.0);
  }
  auto r4 = client.recvFor(4);
  ASSERT_TRUE(r4.has_value());
  EXPECT_EQ(r4->status, ResponseStatus::kOk);
  EXPECT_EQ(r4->tier, 0);
  EXPECT_TRUE(r4->degraded);
  EXPECT_EQ(r4->degradeReason, DegradeReason::kQueueDepth);
  EXPECT_EQ(r4->queueDepth, 2u);
  auto r3 = client.recvFor(3);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->status, ResponseStatus::kOk);
  EXPECT_EQ(r3->tier, 1);
  EXPECT_FALSE(r3->degraded);
  EXPECT_FALSE(r3->cacheHit);  // admitted cold; the fit ran for it
  ASSERT_EQ(r3->rows.size(), 4u);
  for (const AdvisorRow& row : r3->rows) {
    EXPECT_TRUE(row.measured);  // tier 1: simulator ground truth
    EXPECT_GT(row.cycles, 0.0);
  }
  EXPECT_GE(r3->bestCores, 1);
  EXPECT_LE(r3->bestCores, 4);
  EXPECT_GE(r3->efficientCores, 1);

  // --- Rung 2a: a 1 ms deadline has no tier-1 slack (floor: 5 ms). ----
  // Warm model, so the analytic tier still answers inline — or, if the
  // deadline already lapsed in flight, the shed is typed. Both outcomes
  // fold into the reconciliation below.
  ASSERT_TRUE(
      client.send(makeRequest(6, "EP", TierPreference::kAuto, 1)));
  auto r6 = client.recvFor(6);
  ASSERT_TRUE(r6.has_value());
  const bool slackDegraded = r6->status == ResponseStatus::kOk;
  if (slackDegraded) {
    EXPECT_EQ(r6->tier, 0);
    EXPECT_TRUE(r6->degraded);
    EXPECT_EQ(r6->degradeReason, DegradeReason::kDeadlineSlack);
    EXPECT_TRUE(r6->cacheHit);
  } else {
    EXPECT_EQ(r6->status, ResponseStatus::kShed);
    EXPECT_EQ(r6->shedReason, ShedReason::kDeadlineInfeasible);
  }

  // --- Rung 2b: deadline expires mid-tier-1 -> cooperative cancel. ----
  // The refinement blocks at its gate until the request's deadline has
  // passed. The server armed that deadline at admission, before the
  // refinement reached the gate, so once a deadline of the same length
  // armed at the arrival expires, the server's has too. The sweep then
  // unwinds at the simulator's cancellation point and the request falls
  // back to a flagged tier-0 answer.
  const int tier1ArrivalsBefore7 = tier1Gate.arrivals();
  tier1Gate.close();
  ASSERT_TRUE(
      client.send(makeRequest(7, "EP", TierPreference::kTier1, 200)));
  ASSERT_TRUE(tier1Gate.awaitArrivals(tier1ArrivalsBefore7 + 1));
  const Deadline serverDeadlinePassed = Deadline::after(0.200);
  while (!serverDeadlinePassed.expired()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        serverDeadlinePassed.remainingSeconds()));
  }
  tier1Gate.open();
  auto r7 = client.recvFor(7);
  ASSERT_TRUE(r7.has_value());
  EXPECT_EQ(r7->status, ResponseStatus::kOk);
  EXPECT_EQ(r7->tier, 0);
  EXPECT_TRUE(r7->degraded);
  EXPECT_EQ(r7->degradeReason, DegradeReason::kDeadlineMiss);
  EXPECT_TRUE(r7->cacheHit);
  ASSERT_EQ(r7->rows.size(), 4u);

  // --- Slot release: every slot taken so far is free again. -----------
  // A warm tier-0 request is answered inline and reports the depth it
  // was admitted at: req2-4 (fit and tier-1 completions) and req7 (the
  // deadline-miss fallback) all gave their slots back.
  ASSERT_TRUE(client.send(makeRequest(8, "EP", TierPreference::kTier0)));
  auto r8 = client.recvFor(8);
  ASSERT_TRUE(r8.has_value());
  EXPECT_EQ(r8->status, ResponseStatus::kOk);
  EXPECT_EQ(r8->tier, 0);
  EXPECT_FALSE(r8->degraded);  // the client asked for tier 0
  EXPECT_TRUE(r8->cacheHit);
  EXPECT_EQ(r8->queueDepth, 0u);

  // --- Rung 5: drain with work in flight. -----------------------------
  // req9's refinement is parked at the gate when the drain token fires:
  // the server stops accepting, sheds req10 typed, finishes req9, then
  // exits cleanly — which it does only once req9's slot is free too.
  const int tier1ArrivalsBefore = tier1Gate.arrivals();
  tier1Gate.close();
  ASSERT_TRUE(client.send(makeRequest(9)));
  ASSERT_TRUE(tier1Gate.awaitArrivals(tier1ArrivalsBefore + 1));
  drain.requestStop();
  ASSERT_EQ(drainingFuture.wait_for(30s), std::future_status::ready);
  ASSERT_TRUE(client.send(makeRequest(10)));
  auto r10 = client.recvFor(10);
  ASSERT_TRUE(r10.has_value());
  EXPECT_EQ(r10->status, ResponseStatus::kShed);
  EXPECT_EQ(r10->shedReason, ShedReason::kDraining);
  EXPECT_EQ(r10->queueDepth, 1u);  // req9 still holds its slot
  tier1Gate.open();
  auto r9 = client.recvFor(9);
  ASSERT_TRUE(r9.has_value());
  EXPECT_EQ(r9->status, ResponseStatus::kOk);
  EXPECT_EQ(r9->tier, 1);
  EXPECT_TRUE(r9->cacheHit);

  server.join();

  // --- Reconciliation: server counters == client-observed truth. ------
  EXPECT_TRUE(stats.drained);
  EXPECT_TRUE(stats.error.empty());
  EXPECT_EQ(stats.connectionsAccepted, 1u);
  EXPECT_EQ(stats.requestsDecoded, 10u);
  EXPECT_EQ(stats.responsesSent, 10u);
  EXPECT_EQ(stats.shedBadRequest, 1u);
  EXPECT_EQ(stats.shedQueueFull, 1u);
  EXPECT_EQ(stats.shedDraining, 1u);
  EXPECT_EQ(stats.shedDeadlineInfeasible, slackDegraded ? 0u : 1u);
  // Tier 0: 2, 4, 7, 8 (, 6); all but req8 are flagged degraded.
  const std::uint64_t expectDegraded = slackDegraded ? 4u : 3u;
  EXPECT_EQ(stats.tier0Served, expectDegraded + 1);
  EXPECT_EQ(stats.tier1Served, 2u);  // 3, 9
  EXPECT_EQ(stats.degraded, expectDegraded);
  EXPECT_EQ(stats.deadlineMisses, 1u);  // req7
  EXPECT_EQ(stats.fitFailures, 0u);
  EXPECT_EQ(stats.maxQueueDepth, 3u);
  EXPECT_GT(stats.tier1EwmaMs, 0.0);  // seeded by req3 and req9
  EXPECT_EQ(stats.cache.misses, 1u);     // req2 (the herd's first)
  EXPECT_EQ(stats.cache.coalesced, 2u);  // req3, req4
  EXPECT_EQ(stats.cache.hits, 4u);       // req6, req7, req8, req9
  EXPECT_EQ(stats.cache.evictions, 0u);
}

/// The EWMA rung: once tier-1 latency is observed to exceed the
/// threshold, later auto requests degrade to the analytic tier inline.
TEST(AdvisorServer, Tier1LatencyEwmaTripsDegradation) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  CancellationSource drain;

  AdvisorServerConfig config;
  config.degrade.queueCapacity = 4;
  config.degrade.degradeQueueDepth = 0;
  config.degrade.minTier1SlackMs = 0.0;
  config.degrade.maxTier1EwmaMs = 0.001;  // any real sweep exceeds this
  config.workers = 1;
  config.drain = drain.token();
  config.onListening = [&](int port) { portPromise.set_value(port); };

  AdvisorServerStats stats;
  std::thread server([&] { stats = runAdvisorServer(config); });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  TestClient client;
  ASSERT_TRUE(client.connect(portFuture.get()));

  // Cold: the EWMA is unseeded, so the rung cannot trip — full tier 1.
  ASSERT_TRUE(client.send(makeRequest(1)));
  auto r1 = client.recvFor(1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->status, ResponseStatus::kOk);
  EXPECT_EQ(r1->tier, 1);
  EXPECT_FALSE(r1->degraded);

  // Seeded far beyond the threshold: auto now degrades inline.
  ASSERT_TRUE(client.send(makeRequest(2)));
  auto r2 = client.recvFor(2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->status, ResponseStatus::kOk);
  EXPECT_EQ(r2->tier, 0);
  EXPECT_TRUE(r2->degraded);
  EXPECT_EQ(r2->degradeReason, DegradeReason::kTier1Latency);
  EXPECT_TRUE(r2->cacheHit);

  drain.requestStop();
  server.join();
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.tier1Served, 1u);
  EXPECT_EQ(stats.tier0Served, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_GT(stats.tier1EwmaMs, 0.001);
}

/// LRU eviction and single-flight over the wire: capacity one, three
/// herd requests collapse into one fit, and alternating keys re-fit
/// (evicting each other) rather than growing the cache.
TEST(AdvisorServer, CacheEvictionAndSingleFlightOverTheWire) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  CancellationSource drain;

  AdvisorServerConfig config;
  config.degrade.queueCapacity = 8;
  config.degrade.degradeQueueDepth = 0;
  config.cacheCapacity = 1;
  config.workers = 2;
  config.drain = drain.token();
  config.onListening = [&](int port) { portPromise.set_value(port); };

  AdvisorServerStats stats;
  std::thread server([&] { stats = runAdvisorServer(config); });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  TestClient client;
  ASSERT_TRUE(client.connect(portFuture.get()));

  // A pipelined herd on one cold key, analytic tier only: one fit total.
  ASSERT_TRUE(client.send(makeRequest(1, "EP", TierPreference::kTier0)));
  ASSERT_TRUE(client.send(makeRequest(2, "EP", TierPreference::kTier0)));
  ASSERT_TRUE(client.send(makeRequest(3, "EP", TierPreference::kTier0)));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto response = client.recvFor(id);
    ASSERT_TRUE(response.has_value()) << "request " << id;
    EXPECT_EQ(response->status, ResponseStatus::kOk);
    EXPECT_EQ(response->tier, 0);
    EXPECT_FALSE(response->degraded);  // explicit tier 0 is not a downgrade
  }

  // A second key publishes and evicts the first (capacity 1) ...
  ASSERT_TRUE(client.send(makeRequest(4, "CG", TierPreference::kTier0)));
  auto r4 = client.recvFor(4);
  ASSERT_TRUE(r4.has_value());
  EXPECT_EQ(r4->status, ResponseStatus::kOk);
  // ... so asking for the first again is a cold miss and a re-fit.
  ASSERT_TRUE(client.send(makeRequest(5, "EP", TierPreference::kTier0)));
  auto r5 = client.recvFor(5);
  ASSERT_TRUE(r5.has_value());
  EXPECT_EQ(r5->status, ResponseStatus::kOk);
  EXPECT_FALSE(r5->cacheHit);

  drain.requestStop();
  server.join();
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.tier0Served, 5u);
  EXPECT_EQ(stats.tier1Served, 0u);
  EXPECT_EQ(stats.cache.misses, 3u);     // EP cold, CG cold, EP again
  EXPECT_EQ(stats.cache.evictions, 2u);  // CG evicts EP, EP evicts CG
  // The herd's followers either coalesced onto the in-flight fit or (if
  // the fit won the race) hit the fresh entry; either way, one fit.
  EXPECT_EQ(stats.cache.hits + stats.cache.coalesced, 2u);
  EXPECT_EQ(stats.fitFailures, 0u);
}

/// Wire robustness: corrupt streams and protocol misuse drop only the
/// offending connection; the server keeps serving others and still
/// drains cleanly.
TEST(AdvisorServer, CorruptStreamsDropConnectionOnly) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  CancellationSource drain;

  AdvisorServerConfig config;
  config.workers = 1;
  config.drain = drain.token();
  config.onListening = [&](int port) { portPromise.set_value(port); };

  AdvisorServerStats stats;
  std::thread server([&] { stats = runAdvisorServer(config); });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  const int port = portFuture.get();

  // Raw garbage (no frame magic): the server must close the connection.
  {
    auto fd = exec::connectTcp("127.0.0.1", port, 5'000);
    ASSERT_TRUE(fd.hasValue());
    const std::string junk = "definitely not a frame";
    ASSERT_TRUE(exec::sendAllBytes(*fd, junk, /*isSocket=*/true));
    char sink[64];
    ssize_t n;
    do {
      n = ::read(*fd, sink, sizeof sink);
    } while (n > 0 || (n < 0 && errno == EINTR));
    EXPECT_EQ(n, 0);  // orderly close from the server
    ::close(*fd);
  }

  // A valid frame whose payload fails message decode: dropped too.
  {
    TestClient client;
    ASSERT_TRUE(client.connect(port));
    ASSERT_TRUE(client.transport().sendFrame("junk payload"));
    std::string payload;
    EXPECT_EQ(client.transport().recvFrame(payload, 30'000),
              exec::FrameTransport::RecvStatus::kClosed);
  }

  // A well-formed message of the wrong kind (a response sent at the
  // server): a confused peer, dropped.
  {
    TestClient client;
    ASSERT_TRUE(client.connect(port));
    ServeMessage message;
    message.kind = ServeMessage::Kind::kResponse;
    message.response.requestId = 1;
    ASSERT_TRUE(client.transport().sendFrame(encodeServeMessage(message)));
    std::string payload;
    EXPECT_EQ(client.transport().recvFrame(payload, 30'000),
              exec::FrameTransport::RecvStatus::kClosed);
  }

  // The server survived all of that and still answers (with typed
  // bad-request sheds for semantic garbage).
  {
    TestClient client;
    ASSERT_TRUE(client.connect(port));

    AdvisorRequest unknownMachine = makeRequest(1);
    unknownMachine.machine = "no-such-machine";
    ASSERT_TRUE(client.send(unknownMachine));
    auto r1 = client.recvFor(1);
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->shedReason, ShedReason::kBadRequest);
    // The diagnostic lists the known presets.
    EXPECT_NE(r1->error.find("test-numa4"), std::string::npos);

    AdvisorRequest badRange = makeRequest(2);
    badRange.coreMax = 99;  // test-numa4 has 4 cores
    ASSERT_TRUE(client.send(badRange));
    auto r2 = client.recvFor(2);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->shedReason, ShedReason::kBadRequest);

    AdvisorRequest badVersion = makeRequest(3);
    badVersion.protocolVersion = 999;
    ASSERT_TRUE(client.send(badVersion));
    auto r3 = client.recvFor(3);
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->shedReason, ShedReason::kBadRequest);

    AdvisorRequest badThreshold = makeRequest(4);
    badThreshold.efficiencyThreshold = 0.0;
    ASSERT_TRUE(client.send(badThreshold));
    auto r4 = client.recvFor(4);
    ASSERT_TRUE(r4.has_value());
    EXPECT_EQ(r4->shedReason, ShedReason::kBadRequest);
  }

  drain.requestStop();
  server.join();
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.connectionsAccepted, 4u);
  EXPECT_EQ(stats.requestsDecoded, 4u);
  EXPECT_EQ(stats.shedBadRequest, 4u);
  EXPECT_EQ(stats.responsesSent, 4u);
  EXPECT_EQ(stats.tier0Served, 0u);
  EXPECT_EQ(stats.tier1Served, 0u);
}

/// Concurrent clients racing one cold key: single-flight holds under
/// real parallel connections, and every client gets a correct answer.
TEST(AdvisorServer, ConcurrentClientsCoalesceOntoOneFit) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  CancellationSource drain;

  AdvisorServerConfig config;
  config.degrade.queueCapacity = 16;
  config.degrade.degradeQueueDepth = 0;
  config.workers = 2;
  config.drain = drain.token();
  config.onListening = [&](int port) { portPromise.set_value(port); };

  AdvisorServerStats stats;
  std::thread server([&] { stats = runAdvisorServer(config); });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  const int port = portFuture.get();

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  // int, not bool: vector<bool> packs bits and concurrent writes to
  // neighbouring elements would race.
  std::vector<int> answered(kClients, 0);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      TestClient client;
      if (!client.connect(port)) {
        return;
      }
      const auto id = static_cast<std::uint64_t>(i) + 1;
      if (!client.send(makeRequest(id, "EP", TierPreference::kTier0))) {
        return;
      }
      const auto response = client.recvFor(id);
      answered[static_cast<std::size_t>(i)] =
          response.has_value() && response->status == ResponseStatus::kOk &&
          response->tier == 0;
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  drain.requestStop();
  server.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(answered[static_cast<std::size_t>(i)]) << "client " << i;
  }
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.connectionsAccepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.tier0Served, static_cast<std::uint64_t>(kClients));
  // However the arrivals interleaved, the cold key was fitted once: one
  // miss, and everyone else either coalesced onto it or hit the
  // published entry.
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits + stats.cache.coalesced,
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.fitFailures, 0u);
}

}  // namespace
}  // namespace occm::serve
