// Multi-seed chaos soak: the fleet's and the server's fault invariants,
// stated as tests. Each leg runs once per seed 1..20, and every (leg, seed)
// pair is its own test, so `ctest -j` spreads the soak over all cores.
//
// Fleet leg: for every seed, a coordinator + two chaos-wrapped workers
// run the same small sweep while planFromSeed(seed) drops, duplicates,
// reorders, corrupts, stalls, delays, partitions and half-closes their
// connections — and the merged CSV must still be byte-identical to the
// serial in-process reference. Chaos may change who computes what and
// how often it is re-dispatched; it may never change a byte of output.
//
// Server leg: for every seed, an advisor server wearing a chaos
// transport factory serves a burst of clients; every client session ends
// in a typed outcome (answer, shed, typed transport failure) and the
// server itself always drains cleanly. Nothing hangs: every blocking
// call in both legs carries a deadline, and the suite's own runtime is
// the proof.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/distributed_sweep.hpp"
#include "analysis/experiment.hpp"
#include "common/cancellation.hpp"
#include "exec/chaos/chaos_transport.hpp"
#include "serve/advisor_server.hpp"
#include "serve/protocol.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

SweepConfig baseConfig() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kEP;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  config.parallel.workers = 1;
  return config;
}

const std::string& serialReference() {
  static const std::string csv = [] {
    return sweepToCsv(runSweep(baseConfig()));
  }();
  return csv;
}

/// One chaos-fleet run: coordinator with tight fleet timing, two workers
/// whose every connection replays planFromSeed(seed).
std::string chaosFleetCsv(std::uint64_t seed) {
  auto port = std::make_shared<std::promise<int>>();
  std::shared_future<int> portReady(port->get_future());

  SweepConfig config = baseConfig();
  config.distributed.listen = true;
  config.distributed.port = 0;
  // Tight timing so lost frames, dead sessions and expired leases are
  // discovered in test time, not production time. The local pool remains
  // the terminal fallback: even a fleet that chaos renders useless must
  // converge through it.
  config.distributed.graceWindowSeconds = 1.0;
  config.distributed.heartbeatSeconds = 0.05;
  config.distributed.heartbeatTimeoutSeconds = 0.5;
  config.distributed.leaseSeconds = 0.5;
  config.distributed.speculativeAfterSeconds = 0.2;
  config.distributed.maxLeaseExpiries = 3;
  config.distributed.onListening = [port](int boundPort) {
    port->set_value(boundPort);
  };

  std::vector<std::thread> workers;
  std::vector<exec::dist::WorkerReport> reports(2);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    workers.emplace_back([&reports, portReady, seed, i] {
      SweepWorkerOptions options;
      options.workerId = "chaos-" + std::to_string(i);
      options.port = portReady.get();
      options.chaos.seed = seed;
      options.chaos.plan = exec::chaos::planFromSeed(seed);
      options.reconnectBackoff = {.base = 5, .cap = 50, .jitterPct256 = 64,
                                  .seed = seed};
      options.idleTimeoutMs = 250;
      options.maxConnectAttempts = 25;
      // Chaos can eat the handshake itself; the per-attempt deadline is
      // what bounds a worker that never gets a welcome through.
      options.connectTimeoutMs = 300;
      reports[i] = runSweepWorker(options);
    });
  }
  const SweepResult sweep = runSweep(config);
  for (std::thread& worker : workers) {
    worker.join();
  }
  // Worker exits are themselves typed, whatever chaos did to them.
  for (const exec::dist::WorkerReport& report : reports) {
    EXPECT_FALSE(report.stopReason.empty()) << "seed " << seed;
  }
  EXPECT_TRUE(sweep.pendingCoreCounts().empty()) << "seed " << seed;
  return sweepToCsv(sweep);
}

/// Parameterised by the chaos seed.
class ChaosSoak : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }

  /// Names the seed's plan, so a failure can be replayed with
  /// --chaos-plan.
  [[nodiscard]] std::string planTrace() const {
    return "chaos seed " + std::to_string(seed()) + " plan " +
           exec::chaos::planFromSeed(seed()).toSpec();
  }
};

TEST_P(ChaosSoak, FleetConvergesByteIdentical) {
  SCOPED_TRACE(planTrace());
  EXPECT_EQ(chaosFleetCsv(seed()), serialReference());
}

// ---------------------------------------------------------------------
// Server leg.

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

/// One client session against a chaotic server: pipelines a few
/// requests, reads until the stream ends one way or another. Every exit
/// path is a typed RecvStatus — the assertion is that we always get
/// here, bounded by the recv deadline.
void runClientSession(int serverPort, std::uint64_t /*seed*/) {
  auto fd = exec::connectTcp("127.0.0.1", serverPort, 5'000);
  if (!fd) {
    return;  // refused at the admission cap: typed at connect
  }
  auto transport = exec::makeSocketTransport(*fd);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    if (!transport->sendFrame(
            serve::encodeServeMessage(tier0Request(id)))) {
      return;  // typed send failure (half-closed / dropped by chaos)
    }
  }
  for (;;) {
    std::string payload;
    switch (transport->recvFrame(payload, 2'000)) {
      case exec::FrameTransport::RecvStatus::kFrame:
        continue;  // an answer or a typed shed — both fine
      case exec::FrameTransport::RecvStatus::kTimeout:
        // Chaos swallowed responses; the deadline is our typed exit.
        return;
      case exec::FrameTransport::RecvStatus::kClosed:
      case exec::FrameTransport::RecvStatus::kCorrupt:
      case exec::FrameTransport::RecvStatus::kError:
        return;  // typed stream end
    }
  }
}

TEST_P(ChaosSoak, ServerAlwaysDrains) {
  SCOPED_TRACE(planTrace());
  std::promise<int> portPromise;
  auto portFuture = portPromise.get_future();
  CancellationSource drain;

  serve::AdvisorServerConfig config;
  config.workers = 1;
  config.readProgressTimeoutMs = 300;  // chaos stalls must be reaped
  config.drain = drain.token();
  exec::chaos::ChaosConfig chaos;
  chaos.seed = seed();
  chaos.plan = exec::chaos::planFromSeed(seed());
  config.transportFactory = exec::chaos::chaosTransportFactory(chaos);
  config.onListening = [&](int p) { portPromise.set_value(p); };

  serve::AdvisorServerStats stats;
  std::thread server([&] { stats = serve::runAdvisorServer(config); });
  ASSERT_EQ(portFuture.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const int port = portFuture.get();

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back(
        [port, seed = seed()] { runClientSession(port, seed); });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  drain.requestStop();
  server.join();

  // The invariant: whatever chaos did to the sessions, the server run
  // itself ends typed — drained, no listen error, counters coherent.
  EXPECT_TRUE(stats.drained);
  EXPECT_TRUE(stats.error.empty()) << stats.error;
  EXPECT_LE(stats.responsesSent,
            stats.requestsDecoded);  // never answers from thin air
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosSoak, ::testing::Range(1, 21),
    [](const ::testing::TestParamInfo<int>& seed) {
      return "seed" + std::to_string(seed.param);
    });

}  // namespace
}  // namespace occm::analysis
