// Regression drills for the network-hardening fixes the chaos layer
// exposed: the coordinator's handshake deadline, admission cap and
// protocol-violation incidents (wrong version, second hello, unknown task
// id, a profile for the wrong core count, bit-flipped frame), a worker reset counted once, the worker's
// asymmetric-partition idle timeout and its budgeted give-up on an
// undecodable message, and the advisor server's slowloris
// guard, half-close grace, abrupt-close containment, response count and
// connection cap. Each test manufactures the hostile peer by hand (raw
// sockets or a chaos transport) and asserts the victim ends the session
// typed — dropped, refused, or answered — never hung.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "exec/ipc.hpp"
#include "exec/distributed/coordinator.hpp"
#include "exec/distributed/protocol.hpp"
#include "exec/distributed/worker.hpp"
#include "exec/frame_transport.hpp"
#include "serve/advisor_server.hpp"
#include "serve/protocol.hpp"

namespace occm {
namespace {

using namespace std::chrono_literals;
using RecvStatus = exec::FrameTransport::RecvStatus;

/// Blocks until the raw fd reports EOF/error (the peer dropped us) or
/// the deadline passes; returns true on EOF.
bool awaitPeerClose(int fd, int timeoutMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  char byte = 0;
  for (;;) {
    struct pollfd p = {fd, POLLIN, 0};
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    if (remaining <= 0) {
      return false;
    }
    if (::poll(&p, 1, remaining) <= 0) {
      continue;
    }
    const ssize_t n = ::read(fd, &byte, 1);
    if (n == 0) {
      return true;  // orderly close from the peer
    }
    if (n < 0 && errno != EINTR && errno != EAGAIN) {
      return true;  // reset also counts as "dropped us"
    }
  }
}

exec::dist::JobSpec trivialJob(std::uint64_t taskId) {
  exec::dist::JobSpec job;
  job.taskId = taskId;
  job.cores = 1;
  job.program = "EP";
  job.problemClass = "S";
  return job;
}

exec::dist::TaskRunner trivialRunner() {
  return [](const exec::dist::JobSpec& job) {
    exec::dist::TaskResult result;
    result.taskId = job.taskId;
    result.outcome.failure.emplace().error = "synthetic result";
    return result;
  };
}

TEST(NetHardening, CoordinatorDropsSilentHalfOpenConnections) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();

  exec::dist::CoordinatorConfig config;
  config.graceWindowMs = 30'000;
  config.handshakeTimeoutMs = 150;  // the guard under test
  config.heartbeatIntervalMs = 50;
  config.onListening = [&](int port) { portPromise.set_value(port); };
  config.onResult = [](const exec::dist::TaskResult&) {};

  exec::dist::CoordinatorReport report;
  std::thread coordinator([&] {
    report = exec::dist::runCoordinator(config, {trivialJob(0)});
  });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  const int port = portFuture.get();

  // The slow peer: connects and never says hello. The deadline must
  // close it — observed as EOF on our side — long before any heartbeat
  // logic would.
  auto silent = exec::connectTcp("127.0.0.1", port, 5'000);
  ASSERT_TRUE(silent) << silent.error();
  EXPECT_TRUE(awaitPeerClose(*silent, 10'000));
  ::close(*silent);

  // A real worker still gets in and settles the task.
  exec::dist::WorkerOptions worker;
  worker.port = port;
  worker.workerId = "legit";
  const exec::dist::WorkerReport workerReport =
      exec::dist::runWorker(worker, trivialRunner());
  EXPECT_TRUE(workerReport.ok) << workerReport.stopReason;

  coordinator.join();
  ASSERT_EQ(report.settledTasks.size(), 1u);
  bool sawHandshakeIncident = false;
  for (const exec::dist::WorkerIncident& incident : report.incidents) {
    if (incident.kind == exec::dist::WorkerIncident::Kind::kHandshake &&
        incident.detail.find("handshake timeout") != std::string::npos) {
      sawHandshakeIncident = true;
    }
  }
  EXPECT_TRUE(sawHandshakeIncident);
}

TEST(NetHardening, CoordinatorAdmissionCapDegradesTheStormNotTheFleet) {
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();

  exec::dist::CoordinatorConfig config;
  config.graceWindowMs = 30'000;
  config.handshakeTimeoutMs = 200;  // recycles the storm's slots
  config.heartbeatIntervalMs = 50;
  config.maxConnections = 2;
  config.onListening = [&](int port) { portPromise.set_value(port); };
  config.onResult = [](const exec::dist::TaskResult&) {};

  exec::dist::CoordinatorReport report;
  std::thread coordinator([&] {
    report = exec::dist::runCoordinator(config, {trivialJob(0)});
  });
  ASSERT_EQ(portFuture.wait_for(30s), std::future_status::ready);
  const int port = portFuture.get();

  // Reconnect storm: six silent dials against a cap of two. The excess
  // is closed at accept; the first two rot until the handshake deadline.
  std::vector<int> storm;
  for (int i = 0; i < 6; ++i) {
    auto fd = exec::connectTcp("127.0.0.1", port, 5'000);
    ASSERT_TRUE(fd) << fd.error();
    storm.push_back(*fd);
  }
  // Every storm socket must be dropped — refused or handshake-timed-out.
  for (int fd : storm) {
    EXPECT_TRUE(awaitPeerClose(fd, 10'000));
    ::close(fd);
  }

  // With the storm drained, a well-behaved worker is admitted.
  exec::dist::WorkerOptions worker;
  worker.port = port;
  worker.workerId = "survivor";
  worker.maxConnectAttempts = 50;
  worker.reconnectBackoff.base = 10;
  worker.reconnectBackoff.cap = 100;
  const exec::dist::WorkerReport workerReport =
      exec::dist::runWorker(worker, trivialRunner());
  EXPECT_TRUE(workerReport.ok) << workerReport.stopReason;

  coordinator.join();
  EXPECT_EQ(report.settledTasks.size(), 1u);
  EXPECT_GE(report.connectionsRefused, 1u);
}

// ---------------------------------------------------------------------
// Coordinator protocol-violation drills: a hand-rolled peer breaks the
// handshake or the framing, the coordinator records the typed incident
// and drops only that peer, and a real worker still settles the task.

struct CoordinatorHarness {
  exec::dist::CoordinatorConfig config;
  exec::dist::CoordinatorReport report;
  std::thread thread;
  int port = 0;

  void start() {
    std::promise<int> portPromise;
    auto portFuture = portPromise.get_future();
    config.graceWindowMs = 30'000;
    config.heartbeatIntervalMs = 50;
    config.onListening = [&](int p) { portPromise.set_value(p); };
    config.onResult = [](const exec::dist::TaskResult&) {};
    thread = std::thread([this] {
      report = exec::dist::runCoordinator(config, {trivialJob(0)});
    });
    if (portFuture.wait_for(30s) == std::future_status::ready) {
      port = portFuture.get();
    }
  }

  /// Lets a well-behaved worker finish the sweep, then joins.
  void settleWithRealWorker() {
    exec::dist::WorkerOptions worker;
    worker.port = port;
    worker.workerId = "legit";
    const exec::dist::WorkerReport workerReport =
        exec::dist::runWorker(worker, trivialRunner());
    EXPECT_TRUE(workerReport.ok) << workerReport.stopReason;
    thread.join();
    EXPECT_EQ(report.settledTasks.size(), 1u);
  }

  [[nodiscard]] bool sawIncident(exec::dist::WorkerIncident::Kind kind,
                                 const std::string& detail) const {
    for (const exec::dist::WorkerIncident& incident : report.incidents) {
      if (incident.kind == kind &&
          incident.detail.find(detail) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

exec::dist::WireMessage hello(const std::string& workerId) {
  exec::dist::WireMessage message;
  message.kind = exec::dist::WireMessage::Kind::kHello;
  message.workerId = workerId;
  return message;
}

std::optional<exec::dist::WireMessage> recvWire(
    exec::FrameTransport& transport, int timeoutMs = 10'000) {
  std::string payload;
  if (transport.recvFrame(payload, timeoutMs) != RecvStatus::kFrame) {
    return std::nullopt;
  }
  auto decoded = exec::dist::decodeMessage(payload);
  if (!decoded) {
    return std::nullopt;
  }
  return *decoded;
}

TEST(NetHardening, CoordinatorRejectsWrongProtocolVersionOnTheWire) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto peer = exec::makeSocketTransport(rawFd);
  exec::dist::WireMessage stale = hello("stale");
  stale.protocolVersion = exec::dist::kProtocolVersion + 1;
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(stale)));
  const auto reply = recvWire(*peer);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, exec::dist::WireMessage::Kind::kReject);
  EXPECT_NE(reply->reason.find("protocol version"), std::string::npos)
      << reply->reason;
  EXPECT_TRUE(awaitPeerClose(rawFd, 10'000));
  peer.reset();

  coord.settleWithRealWorker();
  EXPECT_TRUE(coord.sawIncident(exec::dist::WorkerIncident::Kind::kHandshake,
                                "protocol version"));
}

TEST(NetHardening, CoordinatorDropsSecondHelloOnALiveSession) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto peer = exec::makeSocketTransport(rawFd);
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(hello("twice"))));
  const auto welcome = recvWire(*peer);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->kind, exec::dist::WireMessage::Kind::kWelcome);
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(hello("twice"))));
  EXPECT_TRUE(awaitPeerClose(rawFd, 10'000));
  peer.reset();

  coord.settleWithRealWorker();
  EXPECT_TRUE(coord.sawIncident(exec::dist::WorkerIncident::Kind::kHandshake,
                                "unexpected hello"));
}

TEST(NetHardening, CoordinatorFlagsResultForUnknownTaskAsCorrupt) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto peer = exec::makeSocketTransport(rawFd);
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(hello("liar"))));
  const auto welcome = recvWire(*peer);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->kind, exec::dist::WireMessage::Kind::kWelcome);
  exec::dist::WireMessage bogus;
  bogus.kind = exec::dist::WireMessage::Kind::kResult;
  bogus.result.taskId = 99;  // the sweep has one job
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(bogus)));
  EXPECT_TRUE(awaitPeerClose(rawFd, 10'000));
  peer.reset();

  coord.settleWithRealWorker();
  EXPECT_TRUE(coord.sawIncident(
      exec::dist::WorkerIncident::Kind::kFrameCorrupt, "unknown task id 99"));
}

TEST(NetHardening, CoordinatorFlagsResultForWrongCoreCountAsCorrupt) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto peer = exec::makeSocketTransport(rawFd);
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(hello("liar"))));
  const auto welcome = recvWire(*peer);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->kind, exec::dist::WireMessage::Kind::kWelcome);
  const auto assign = recvWire(*peer);
  ASSERT_TRUE(assign.has_value());
  ASSERT_EQ(assign->kind, exec::dist::WireMessage::Kind::kAssign);
  ASSERT_EQ(assign->job.cores, 1);
  // A profile for the right task id, measured on the wrong core count.
  exec::dist::WireMessage bogus;
  bogus.kind = exec::dist::WireMessage::Kind::kResult;
  bogus.result.taskId = assign->job.taskId;
  bogus.result.outcome.profile.emplace().activeCores = 3;
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(bogus)));
  EXPECT_TRUE(awaitPeerClose(rawFd, 10'000));
  peer.reset();

  // The lease goes back to the pool and the real worker settles it.
  coord.settleWithRealWorker();
  EXPECT_TRUE(coord.sawIncident(
      exec::dist::WorkerIncident::Kind::kFrameCorrupt,
      "ran on 3 cores, the job asked for 1"));
  bool namedTheTask = false;
  for (const exec::dist::WorkerIncident& incident : coord.report.incidents) {
    if (incident.worker == "liar" && incident.taskId.has_value() &&
        *incident.taskId == 0) {
      namedTheTask = true;
    }
  }
  EXPECT_TRUE(namedTheTask);
}

TEST(NetHardening, CoordinatorDropsBitFlippedFrame) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  std::string frame =
      exec::encodeFrame(exec::dist::encodeMessage(hello("flipper")));
  frame[exec::kFrameHeaderSize] ^= 0x01;  // payload bit: CRC must catch it
  ASSERT_EQ(::send(*fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(awaitPeerClose(*fd, 10'000));
  ::close(*fd);

  coord.settleWithRealWorker();
  EXPECT_TRUE(coord.sawIncident(
      exec::dist::WorkerIncident::Kind::kFrameCorrupt, "crc"));
}

TEST(NetHardening, CoordinatorCountsAWorkerResetOnce) {
  CoordinatorHarness coord;
  coord.start();
  ASSERT_GT(coord.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", coord.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto peer = exec::makeSocketTransport(rawFd);
  ASSERT_TRUE(peer->sendFrame(exec::dist::encodeMessage(hello("resetter"))));
  const auto welcome = recvWire(*peer);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->kind, exec::dist::WireMessage::Kind::kWelcome);
  // SO_LINGER 0: the close resets the connection instead of a FIN, with
  // the task's assign possibly still unread.
  const struct linger hard = {1, 0};
  ASSERT_EQ(::setsockopt(rawFd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard), 0);
  peer.reset();

  coord.settleWithRealWorker();
  int lost = 0;
  int other = 0;
  for (const exec::dist::WorkerIncident& incident : coord.report.incidents) {
    if (incident.worker != "resetter") {
      continue;
    }
    if (incident.kind == exec::dist::WorkerIncident::Kind::kWorkerLost) {
      ++lost;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(other, 0);
}

TEST(NetHardening, WorkerIdleTimeoutEscapesAsymmetricPartition) {
  // A hand-rolled coordinator that completes the handshake and then goes
  // silent forever — the asymmetric partition as the worker experiences
  // it: its outbound direction works (hello got answered), inbound is
  // dead (no assigns, no pings). Without the idle guard the worker would
  // poll this session until the end of time.
  int port = 0;
  auto listenFd = exec::listenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listenFd) << listenFd.error();
  std::thread silentCoordinator([fd = *listenFd] {
    const int conn = ::accept(fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    auto transport = exec::makeSocketTransport(conn);
    std::string payload;
    ASSERT_EQ(transport->recvFrame(payload, 10'000), RecvStatus::kFrame);
    exec::dist::WireMessage welcome;
    welcome.kind = exec::dist::WireMessage::Kind::kWelcome;
    welcome.protocolVersion = exec::dist::kProtocolVersion;
    ASSERT_TRUE(transport->sendFrame(exec::dist::encodeMessage(welcome)));
    // Hold the session open, saying nothing, until the worker hangs up.
    while (transport->recvFrame(payload, 200) != RecvStatus::kClosed) {
    }
    ::close(fd);
  });

  exec::dist::WorkerOptions worker;
  worker.port = port;
  worker.workerId = "partitioned";
  worker.idleTimeoutMs = 150;
  worker.maxConnectAttempts = 1;  // first silent session = typed give-up
  const exec::dist::WorkerReport report =
      exec::dist::runWorker(worker, trivialRunner());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.stopReason.find("idle timeout"), std::string::npos)
      << report.stopReason;
  silentCoordinator.join();
}

TEST(NetHardening, WorkerTreatsUndecodableMessageAsALostSession) {
  // A hand-rolled coordinator that welcomes the worker and then sends one
  // frame whose CRC checks out but whose payload is no message. The
  // worker must spend its attempt budget on that like on a corrupt frame.
  // The fake serves at most five sessions and then stops listening, so a
  // worker that reconnects without counting fails here instead of hanging.
  const std::string garbage = "\xff not a wire message";
  const auto decoded = exec::dist::decodeMessage(garbage);
  ASSERT_FALSE(decoded.hasValue());
  int port = 0;
  auto listenFd = exec::listenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listenFd) << listenFd.error();
  std::atomic<int> sessions{0};
  std::atomic<bool> workerDone{false};
  std::thread garblingCoordinator([&, fd = *listenFd] {
    while (sessions.load() < 5 && !workerDone.load()) {
      struct pollfd p = {fd, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) {
        continue;
      }
      const int conn = ::accept(fd, nullptr, nullptr);
      if (conn < 0) {
        continue;
      }
      ++sessions;
      auto transport = exec::makeSocketTransport(conn);
      std::string payload;
      if (transport->recvFrame(payload, 10'000) != RecvStatus::kFrame) {
        continue;
      }
      exec::dist::WireMessage welcome;
      welcome.kind = exec::dist::WireMessage::Kind::kWelcome;
      welcome.protocolVersion = exec::dist::kProtocolVersion;
      if (!transport->sendFrame(exec::dist::encodeMessage(welcome)) ||
          !transport->sendFrame(garbage)) {
        continue;
      }
      // Hold the session until the worker hangs up.
      while (transport->recvFrame(payload, 200) == RecvStatus::kTimeout &&
             !workerDone.load()) {
      }
    }
    ::close(fd);
  });

  exec::dist::WorkerOptions worker;
  worker.port = port;
  worker.workerId = "garbled";
  worker.maxConnectAttempts = 1;  // first undecodable message = give-up
  const exec::dist::WorkerReport report =
      exec::dist::runWorker(worker, trivialRunner());
  workerDone = true;
  garblingCoordinator.join();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(sessions.load(), 1);
  EXPECT_EQ(report.reconnects, 0u);
  EXPECT_EQ(report.stopReason,
            "connection lost: " + decoded.error().message());
}

// ---------------------------------------------------------------------
// Advisor-server drills.

struct ServerHarness {
  serve::AdvisorServerConfig config;
  serve::AdvisorServerStats stats;
  CancellationSource drain;
  std::thread thread;
  int port = 0;

  void start() {
    std::promise<int> portPromise;
    auto portFuture = portPromise.get_future();
    config.workers = 1;
    config.drain = drain.token();
    config.onListening = [&](int p) { portPromise.set_value(p); };
    thread = std::thread([this] { stats = serve::runAdvisorServer(config); });
    if (portFuture.wait_for(30s) == std::future_status::ready) {
      port = portFuture.get();
    }
  }

  void stop() {
    drain.requestStop();
    thread.join();
  }
};

serve::ServeMessage tier0Request(std::uint64_t id) {
  serve::ServeMessage message;
  message.kind = serve::ServeMessage::Kind::kRequest;
  message.request.requestId = id;
  message.request.program = "EP";
  message.request.problemClass = "S";
  message.request.machine = "test-numa4";
  message.request.tier = serve::TierPreference::kTier0;
  return message;
}

std::optional<serve::AdvisorResponse> recvResponse(
    exec::FrameTransport& transport, int timeoutMs = 30'000) {
  std::string payload;
  if (transport.recvFrame(payload, timeoutMs) != RecvStatus::kFrame) {
    return std::nullopt;
  }
  auto decoded = serve::decodeServeMessage(payload);
  if (!decoded || decoded->kind != serve::ServeMessage::Kind::kResponse) {
    return std::nullopt;
  }
  return decoded->response;
}

TEST(NetHardening, ServerSlowlorisGuardDropsStalledNotHealthy) {
  ServerHarness server;
  server.config.readProgressTimeoutMs = 200;
  server.start();
  ASSERT_GT(server.port, 0);

  // The slowloris: opens a frame and stops after four header bytes.
  auto stalled = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(stalled) << stalled.error();
  const std::string wholeFrame =
      exec::encodeFrame(serve::encodeServeMessage(tier0Request(1)));
  ASSERT_EQ(::send(*stalled, wholeFrame.data(), 4, MSG_NOSIGNAL), 4);

  // A healthy client on the same server is served while the stall ages.
  auto healthyFd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(healthyFd) << healthyFd.error();
  auto healthy = exec::makeSocketTransport(*healthyFd);
  ASSERT_TRUE(
      healthy->sendFrame(serve::encodeServeMessage(tier0Request(2))));
  const auto response = recvResponse(*healthy);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->requestId, 2u);

  // The stalled connection is dropped by the guard — typed EOF, no hang.
  EXPECT_TRUE(awaitPeerClose(*stalled, 10'000));
  ::close(*stalled);

  server.stop();
  EXPECT_TRUE(server.stats.drained);
  EXPECT_GE(server.stats.connectionsStalled, 1u);
}

TEST(NetHardening, ServerAnswersPipelinedRequestsAfterHalfClose) {
  ServerHarness server;
  server.start();
  ASSERT_GT(server.port, 0);

  auto fd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  const int rawFd = *fd;
  auto transport = exec::makeSocketTransport(rawFd);
  ASSERT_TRUE(transport->sendFrame(serve::encodeServeMessage(tier0Request(1))));
  ASSERT_TRUE(transport->sendFrame(serve::encodeServeMessage(tier0Request(2))));
  // Half-close: we are done talking, but the answers must still arrive.
  ASSERT_EQ(::shutdown(rawFd, SHUT_WR), 0);

  const auto first = recvResponse(*transport);
  const auto second = recvResponse(*transport);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->requestId, 1u);
  EXPECT_EQ(second->requestId, 2u);

  server.stop();
  EXPECT_TRUE(server.stats.drained);
  EXPECT_EQ(server.stats.responsesSent, 2u);
}

TEST(NetHardening, ServerContainsAbruptCloseToThatConnection) {
  ServerHarness server;
  server.start();
  ASSERT_GT(server.port, 0);

  // The vanisher: sends a request and disappears before the answer. The
  // server's write hits a dead socket (EPIPE territory) and must kill
  // only this connection.
  {
    auto fd = exec::connectTcp("127.0.0.1", server.port, 5'000);
    ASSERT_TRUE(fd) << fd.error();
    auto transport = exec::makeSocketTransport(*fd);
    ASSERT_TRUE(
        transport->sendFrame(serve::encodeServeMessage(tier0Request(1))));
    // Transport destructor closes the socket with the request in flight.
  }

  auto fd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  auto survivor = exec::makeSocketTransport(*fd);
  ASSERT_TRUE(
      survivor->sendFrame(serve::encodeServeMessage(tier0Request(2))));
  const auto response = recvResponse(*survivor);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->requestId, 2u);

  server.stop();
  EXPECT_TRUE(server.stats.drained);
  EXPECT_TRUE(server.stats.error.empty());
}

/// Socket transport that counts the frames it got into the kernel.
class CountingWrites final : public exec::FrameTransport {
 public:
  CountingWrites(int fd, std::atomic<std::uint64_t>& written)
      : inner_(exec::makeSocketTransport(fd)), written_(written) {}

  bool sendFrame(std::string_view payload) override {
    const bool ok = inner_->sendFrame(payload);
    if (ok) {
      ++written_;
    }
    return ok;
  }
  RecvStatus recvFrame(std::string& payload, int timeoutMs) override {
    return inner_->recvFrame(payload, timeoutMs);
  }
  [[nodiscard]] std::string lastError() const override {
    return inner_->lastError();
  }
  [[nodiscard]] int pollFd() const noexcept override {
    return inner_->pollFd();
  }
  [[nodiscard]] std::uint64_t bytesReceived() const noexcept override {
    return inner_->bytesReceived();
  }

 private:
  std::unique_ptr<exec::FrameTransport> inner_;
  std::atomic<std::uint64_t>& written_;
};

TEST(NetHardening, ServerCountsOnlyResponsesItWrote) {
  std::atomic<std::uint64_t> written{0};
  ServerHarness server;
  server.config.transportFactory = [&](int fd, std::uint64_t) {
    return std::make_unique<CountingWrites>(fd, written);
  };
  server.start();
  ASSERT_GT(server.port, 0);

  // Warms the model, so later tier-0 answers are computed inline.
  auto fd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(fd) << fd.error();
  auto steady = exec::makeSocketTransport(*fd);
  ASSERT_TRUE(steady->sendFrame(serve::encodeServeMessage(tier0Request(1))));
  ASSERT_TRUE(recvResponse(*steady).has_value());

  // The resetter pipelines inline answers and a pooled tier-1 one, then
  // resets before reading any: some writes may land, some must fail.
  {
    auto resetFd = exec::connectTcp("127.0.0.1", server.port, 5'000);
    ASSERT_TRUE(resetFd) << resetFd.error();
    const int rawFd = *resetFd;
    auto resetter = exec::makeSocketTransport(rawFd);
    serve::ServeMessage tier1 = tier0Request(4);
    tier1.request.tier = serve::TierPreference::kTier1;
    for (const serve::ServeMessage& request :
         {tier0Request(2), tier0Request(3), tier1}) {
      ASSERT_TRUE(resetter->sendFrame(serve::encodeServeMessage(request)));
    }
    const struct linger hard = {1, 0};
    ASSERT_EQ(
        ::setsockopt(rawFd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard), 0);
  }

  ASSERT_TRUE(steady->sendFrame(serve::encodeServeMessage(tier0Request(5))));
  const auto last = recvResponse(*steady);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->requestId, 5u);

  server.stop();
  EXPECT_TRUE(server.stats.drained);
  EXPECT_GE(server.stats.responsesSent, 2u);
  EXPECT_EQ(server.stats.responsesSent, written.load());
}

TEST(NetHardening, ServerConnectionCapRefusesTheExcess) {
  ServerHarness server;
  server.config.maxConnections = 1;
  server.start();
  ASSERT_GT(server.port, 0);

  auto firstFd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(firstFd) << firstFd.error();
  auto first = exec::makeSocketTransport(*firstFd);
  ASSERT_TRUE(first->sendFrame(serve::encodeServeMessage(tier0Request(1))));
  ASSERT_TRUE(recvResponse(*first).has_value());

  // The second connection is admitted by the kernel but closed by the
  // server at accept: its stream ends before any frame arrives.
  auto secondFd = exec::connectTcp("127.0.0.1", server.port, 5'000);
  ASSERT_TRUE(secondFd) << secondFd.error();
  auto second = exec::makeSocketTransport(*secondFd);
  std::string payload;
  EXPECT_EQ(second->recvFrame(payload, 10'000), RecvStatus::kClosed);

  server.stop();
  EXPECT_TRUE(server.stats.drained);
  EXPECT_GE(server.stats.connectionsRefused, 1u);
}

}  // namespace
}  // namespace occm
