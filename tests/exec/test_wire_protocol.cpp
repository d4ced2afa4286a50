// Distributed wire protocol codec: every message kind round-trips
// bit-exactly (including a kAssign carrying a full hand-tuned MachineSpec
// and a kResult carrying a fully populated RunProfile), and arbitrary
// byte damage — unknown kinds, out-of-range enums, truncation at every
// prefix length, trailing bytes — yields a typed IpcError, never a throw.

#include "exec/distributed/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "topology/presets.hpp"

namespace occm::exec::dist {
namespace {

/// A profile with every serialized field populated with a distinctive
/// value (same discipline as the isolation-pipe codec tests).
perf::RunProfile sampleProfile() {
  perf::RunProfile p;
  p.program = "CG.S";
  p.machine = "test-numa-4";
  p.threads = 4;
  p.activeCores = 3;
  p.counters = {101, 17, 4242, 99};
  p.perCore.push_back({11, 3, 40, 5});
  p.perCore.push_back({90, 14, 4202, 94});
  p.coherenceMisses = 7;
  p.writebacks = 13;
  p.contextSwitches = 2;
  p.makespan = 98;
  mem::ControllerStats stats;
  stats.requests = 1;
  stats.rowHits = 4;
  stats.busyCycles = 6;
  stats.retryAttempts = 11;
  p.controllerStats.push_back(stats);
  p.channelsPerController = 2;
  p.missWindows = {5, 0, 12};
  p.samplerWindowCycles = 13'350;
  p.faultEpochs.push_back({"controller-outage", 1, 20'000, 60'000, 1.0});
  p.reroutedRequests = 21;
  p.faultRetries = 22;
  p.backgroundRequests = 23;
  p.throttledCycles = 24;
  return p;
}

/// A job whose machine is hand-tuned (not a preset name) — the wire
/// format must carry the spec itself, caches and hop matrix included.
JobSpec sampleJob() {
  JobSpec job;
  job.taskId = 42;
  job.cores = 3;
  job.maxAttempts = 2;
  job.program = "CG";
  job.problemClass = "S";
  job.threads = 4;
  job.workloadSeed = 0xDEADBEEF;
  job.machine = topology::testNuma4();
  job.machine.name = "hand-tuned \"numa\"";
  job.machine.dramLatency += 17;  // deviation a name could not carry
  job.schedQuantum = 10'000;
  job.schedSwitchCost = 250;
  job.memPlacement = 2;
  job.memService = 1;
  job.memSeed = 99;
  job.enableSampler = true;
  job.samplerWindowNs = 2'500.0;
  job.syncHorizon = 5'000;
  job.cycleBudget = 1'000'000;
  job.simSeed = 7;
  job.faultPlanJson = "{\"faults\":[]}";
  return job;
}

void expectJobsEq(const JobSpec& a, const JobSpec& b) {
  EXPECT_EQ(a.taskId, b.taskId);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.maxAttempts, b.maxAttempts);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.problemClass, b.problemClass);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.workloadSeed, b.workloadSeed);
  EXPECT_EQ(a.machine.name, b.machine.name);
  EXPECT_EQ(a.machine.clockGhz, b.machine.clockGhz);
  EXPECT_EQ(a.machine.sockets, b.machine.sockets);
  EXPECT_EQ(a.machine.coresPerDie, b.machine.coresPerDie);
  ASSERT_EQ(a.machine.caches.size(), b.machine.caches.size());
  for (std::size_t i = 0; i < a.machine.caches.size(); ++i) {
    EXPECT_EQ(a.machine.caches[i].level, b.machine.caches[i].level);
    EXPECT_EQ(a.machine.caches[i].size, b.machine.caches[i].size);
    EXPECT_EQ(a.machine.caches[i].lineSize, b.machine.caches[i].lineSize);
    EXPECT_EQ(a.machine.caches[i].associativity,
              b.machine.caches[i].associativity);
    EXPECT_EQ(a.machine.caches[i].hitLatency, b.machine.caches[i].hitLatency);
    EXPECT_EQ(a.machine.caches[i].scope, b.machine.caches[i].scope);
  }
  EXPECT_EQ(a.machine.memoryArchitecture, b.machine.memoryArchitecture);
  EXPECT_EQ(a.machine.controllerScope, b.machine.controllerScope);
  EXPECT_EQ(a.machine.dramLatency, b.machine.dramLatency);
  EXPECT_EQ(a.machine.hopMatrix, b.machine.hopMatrix);
  EXPECT_EQ(a.machine.pageSize, b.machine.pageSize);
  EXPECT_EQ(a.machine.scaleFactor, b.machine.scaleFactor);
  EXPECT_EQ(a.schedQuantum, b.schedQuantum);
  EXPECT_EQ(a.schedSwitchCost, b.schedSwitchCost);
  EXPECT_EQ(a.memPlacement, b.memPlacement);
  EXPECT_EQ(a.memService, b.memService);
  EXPECT_EQ(a.memSeed, b.memSeed);
  EXPECT_EQ(a.enableSampler, b.enableSampler);
  EXPECT_EQ(a.samplerWindowNs, b.samplerWindowNs);
  EXPECT_EQ(a.syncHorizon, b.syncHorizon);
  EXPECT_EQ(a.cycleBudget, b.cycleBudget);
  EXPECT_EQ(a.simSeed, b.simSeed);
  EXPECT_EQ(a.faultPlanJson, b.faultPlanJson);
}

TEST(WireProtocol, HelloRoundTrips) {
  WireMessage m;
  m.kind = WireMessage::Kind::kHello;
  m.protocolVersion = kProtocolVersion;
  m.workerId = "worker-7 \"quoted\"\n";
  const auto back = decodeMessage(encodeMessage(m));
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  EXPECT_EQ(back->kind, WireMessage::Kind::kHello);
  EXPECT_EQ(back->protocolVersion, kProtocolVersion);
  EXPECT_EQ(back->workerId, m.workerId);
}

TEST(WireProtocol, WelcomeRejectShutdownRoundTrip) {
  WireMessage welcome;
  welcome.kind = WireMessage::Kind::kWelcome;
  welcome.protocolVersion = 3;
  auto back = decodeMessage(encodeMessage(welcome));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(back->kind, WireMessage::Kind::kWelcome);
  EXPECT_EQ(back->protocolVersion, 3u);

  WireMessage reject;
  reject.kind = WireMessage::Kind::kReject;
  reject.reason = "protocol version 99 unsupported";
  back = decodeMessage(encodeMessage(reject));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(back->kind, WireMessage::Kind::kReject);
  EXPECT_EQ(back->reason, reject.reason);

  WireMessage shutdown;
  shutdown.kind = WireMessage::Kind::kShutdown;
  shutdown.reason = "sweep drained";
  back = decodeMessage(encodeMessage(shutdown));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(back->kind, WireMessage::Kind::kShutdown);
  EXPECT_EQ(back->reason, shutdown.reason);
}

TEST(WireProtocol, PingPongEchoFields) {
  WireMessage ping;
  ping.kind = WireMessage::Kind::kPing;
  ping.pingId = 123;
  ping.pingSentNs = 456'789;
  auto back = decodeMessage(encodeMessage(ping));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(back->kind, WireMessage::Kind::kPing);
  EXPECT_EQ(back->pingId, 123u);
  EXPECT_EQ(back->pingSentNs, 456'789u);

  WireMessage pong = *back;
  pong.kind = WireMessage::Kind::kPong;
  back = decodeMessage(encodeMessage(pong));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(back->kind, WireMessage::Kind::kPong);
  EXPECT_EQ(back->pingId, 123u);
  EXPECT_EQ(back->pingSentNs, 456'789u);
}

TEST(WireProtocol, AssignRoundTripsFullJob) {
  WireMessage m;
  m.kind = WireMessage::Kind::kAssign;
  m.job = sampleJob();
  const auto back = decodeMessage(encodeMessage(m));
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_EQ(back->kind, WireMessage::Kind::kAssign);
  expectJobsEq(back->job, m.job);
}

TEST(WireProtocol, ResultRoundTripsProfileAndFailure) {
  WireMessage m;
  m.kind = WireMessage::Kind::kResult;
  m.result.taskId = 42;
  m.result.outcome.profile = sampleProfile();
  RunFailure& failure = m.result.outcome.failure.emplace();
  failure.kind = RunFailureKind::kCrash;
  failure.attempts = 2;
  failure.recovered = true;
  failure.error = "signal 9";
  failure.signal = 9;
  failure.rlimit = "RLIMIT_AS";
  failure.stderrTail = "out of memory\n";
  const auto back = decodeMessage(encodeMessage(m));
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_EQ(back->kind, WireMessage::Kind::kResult);
  EXPECT_EQ(back->result.taskId, 42u);
  ASSERT_TRUE(back->result.outcome.profile.has_value());
  const perf::RunProfile& profile = *back->result.outcome.profile;
  EXPECT_EQ(profile.program, "CG.S");
  EXPECT_EQ(profile.counters.totalCycles, 101u);
  EXPECT_EQ(profile.perCore.size(), 2u);
  EXPECT_EQ(profile.controllerStats.size(), 1u);
  EXPECT_EQ(profile.faultEpochs.size(), 1u);
  EXPECT_EQ(profile.throttledCycles, 24u);
  ASSERT_TRUE(back->result.outcome.failure.has_value());
  const RunFailure& got = *back->result.outcome.failure;
  EXPECT_EQ(got.kind, RunFailureKind::kCrash);
  EXPECT_EQ(got.attempts, 2);
  EXPECT_TRUE(got.recovered);
  EXPECT_EQ(got.error, "signal 9");
  EXPECT_EQ(got.signal, 9);
  EXPECT_EQ(got.rlimit, "RLIMIT_AS");
  EXPECT_EQ(got.stderrTail, "out of memory\n");
}

TEST(WireProtocol, ResultWithFailureOnlyRoundTrips) {
  WireMessage m;
  m.kind = WireMessage::Kind::kResult;
  m.result.taskId = 7;
  RunFailure& failure = m.result.outcome.failure.emplace();
  failure.kind = RunFailureKind::kTimeout;
  failure.attempts = 1;
  failure.error = "deadline";
  const auto back = decodeMessage(encodeMessage(m));
  ASSERT_TRUE(back.hasValue());
  EXPECT_FALSE(back->result.outcome.profile.has_value());
  ASSERT_TRUE(back->result.outcome.failure.has_value());
  EXPECT_EQ(back->result.outcome.failure->kind, RunFailureKind::kTimeout);
}

TEST(WireProtocol, UnknownKindRejected) {
  std::string payload;
  payload.push_back('\x2A');  // kind 42 does not exist
  const auto r = decodeMessage(payload);
  ASSERT_FALSE(r.hasValue());
  EXPECT_NE(r.error().message().find("unknown message kind"),
            std::string::npos);
}

TEST(WireProtocol, EmptyPayloadRejected) {
  EXPECT_FALSE(decodeMessage("").hasValue());
}

TEST(WireProtocol, TrailingBytesRejectedOnEveryKind) {
  WireMessage messages[3];
  messages[0].kind = WireMessage::Kind::kWelcome;
  messages[1].kind = WireMessage::Kind::kPing;
  messages[2].kind = WireMessage::Kind::kAssign;
  messages[2].job = sampleJob();
  for (const WireMessage& m : messages) {
    const std::string payload = encodeMessage(m) + "x";
    const auto r = decodeMessage(payload);
    ASSERT_FALSE(r.hasValue());
    EXPECT_NE(r.error().message().find("trailing"), std::string::npos);
  }
}

TEST(WireProtocol, TruncationAtEveryPrefixRejected) {
  // The deepest message we have: a result with profile + failure.
  WireMessage m;
  m.kind = WireMessage::Kind::kResult;
  m.result.taskId = 42;
  m.result.outcome.profile = sampleProfile();
  RunFailure& failure = m.result.outcome.failure.emplace();
  failure.error = "boom";
  const std::string payload = encodeMessage(m);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto r = decodeMessage(payload.substr(0, len));
    EXPECT_FALSE(r.hasValue()) << "prefix of length " << len << " decoded";
  }
  // And the assign message, which exercises the machine-spec reader.
  WireMessage assign;
  assign.kind = WireMessage::Kind::kAssign;
  assign.job = sampleJob();
  const std::string assignPayload = encodeMessage(assign);
  for (std::size_t len = 0; len < assignPayload.size(); ++len) {
    EXPECT_FALSE(decodeMessage(assignPayload.substr(0, len)).hasValue())
        << "prefix of length " << len << " decoded";
  }
}

TEST(WireProtocol, OutOfRangeEnumsRejected) {
  // Failure kind (u8 after taskId + hasProfile + hasFailure flags).
  WireMessage m;
  m.kind = WireMessage::Kind::kResult;
  m.result.taskId = 1;
  m.result.outcome.failure.emplace().kind = RunFailureKind::kException;
  std::string payload = encodeMessage(m);
  // kind byte is the first byte after: msg kind (1) + taskId (8) +
  // hasProfile (1) + hasFailure (1) = offset 11.
  ASSERT_EQ(payload[11], '\x00');
  // Beyond kCrash = 3: garbage, and the coordinator-local kinds, which
  // never travel on the wire.
  for (const char kind : {'\x09', '\x04', '\x05', '\x06'}) {
    payload[11] = kind;
    const auto r = decodeMessage(payload);
    ASSERT_FALSE(r.hasValue());
    EXPECT_NE(r.error().message().find("failure kind"), std::string::npos);
  }

  // Boolean flags must be 0 or 1.
  payload = encodeMessage(m);
  payload[9] = '\x02';  // hasProfile flag
  const auto r = decodeMessage(payload);
  ASSERT_FALSE(r.hasValue());
  EXPECT_NE(r.error().message().find("flag"), std::string::npos);
}

}  // namespace
}  // namespace occm::exec::dist
