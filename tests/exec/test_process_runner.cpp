// Crash-containment tests for the process isolation runner: the outcome
// codec round-trips a fully populated RunProfile bit-exactly and every
// run failure kind field by field, and rejects truncation and unknown
// kinds with typed errors; runInChild returns every way a child can end —
// clean profile, exception, abort, signal death (SIGKILL / SIGSEGV /
// abort), RLIMIT_AS exhaustion, supervisor kill, a clean exit with a
// missing, trailing or oversized result frame — as one RunOutcome without
// ever crashing the parent.
//
// Sanitizers change crash signatures (asan intercepts SIGSEGV and turns
// it into a nonzero exit; RLIMIT_AS fights the shadow mappings), so
// exact-signal assertions relax and the OOM test skips under them.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"
#include "exec/frame_transport.hpp"
#include "exec/ipc.hpp"
#include "exec/process_runner.hpp"
#include "exec/wire_codec.hpp"
#include "fault/crash_injection.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OCCM_UNDER_SANITIZER 1
#endif
#if !defined(OCCM_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OCCM_UNDER_SANITIZER 1
#endif
#endif
#ifndef OCCM_UNDER_SANITIZER
#define OCCM_UNDER_SANITIZER 0
#endif

namespace occm::exec {
namespace {

/// A profile with every serialized field populated with a distinctive
/// value, so a codec that drops or reorders a field cannot round-trip.
perf::RunProfile sampleProfile() {
  perf::RunProfile p;
  p.program = "CG.S";
  p.machine = "test-numa-4 \"quoted\"\n";
  p.threads = 4;
  p.activeCores = 3;
  p.counters = {101, 17, 4242, 99};
  p.perCore.push_back({11, 3, 40, 5});
  p.perCore.push_back({0, 0, 0, 0});
  p.perCore.push_back({90, 14, 4202, 94});
  p.coherenceMisses = 7;
  p.writebacks = 13;
  p.contextSwitches = 2;
  p.makespan = 98;
  mem::ControllerStats stats;
  stats.requests = 1;
  stats.writebacks = 2;
  stats.remoteRequests = 3;
  stats.rowHits = 4;
  stats.rowMisses = 5;
  stats.busyCycles = 6;
  stats.totalWait = 7;
  stats.totalService = 8;
  stats.reroutedAway = 9;
  stats.absorbed = 10;
  stats.retryAttempts = 11;
  stats.eccRetries = 12;
  stats.background = 13;
  p.controllerStats.push_back(stats);
  p.channelsPerController = 2;
  p.missWindows = {5, 0, 12};
  p.samplerWindowCycles = 13'350;
  p.faultEpochs.push_back({"controller-outage", 1, 20'000, 60'000, 1.0});
  p.faultEpochs.push_back({"ecc-spike", 0, 70'000, 90'000, 0.05});
  p.reroutedRequests = 21;
  p.faultRetries = 22;
  p.backgroundRequests = 23;
  p.throttledCycles = 24;
  return p;
}

void expectCountersEq(const perf::CounterSet& a, const perf::CounterSet& b) {
  EXPECT_EQ(a.totalCycles, b.totalCycles);
  EXPECT_EQ(a.stallCycles, b.stallCycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.llcMisses, b.llcMisses);
}

void expectProfilesEq(const perf::RunProfile& a, const perf::RunProfile& b) {
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.activeCores, b.activeCores);
  expectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.perCore.size(), b.perCore.size());
  for (std::size_t i = 0; i < a.perCore.size(); ++i) {
    expectCountersEq(a.perCore[i], b.perCore[i]);
  }
  EXPECT_EQ(a.coherenceMisses, b.coherenceMisses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.controllerStats.size(), b.controllerStats.size());
  for (std::size_t i = 0; i < a.controllerStats.size(); ++i) {
    const mem::ControllerStats& x = a.controllerStats[i];
    const mem::ControllerStats& y = b.controllerStats[i];
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.remoteRequests, y.remoteRequests);
    EXPECT_EQ(x.rowHits, y.rowHits);
    EXPECT_EQ(x.rowMisses, y.rowMisses);
    EXPECT_EQ(x.busyCycles, y.busyCycles);
    EXPECT_EQ(x.totalWait, y.totalWait);
    EXPECT_EQ(x.totalService, y.totalService);
    EXPECT_EQ(x.reroutedAway, y.reroutedAway);
    EXPECT_EQ(x.absorbed, y.absorbed);
    EXPECT_EQ(x.retryAttempts, y.retryAttempts);
    EXPECT_EQ(x.eccRetries, y.eccRetries);
    EXPECT_EQ(x.background, y.background);
  }
  EXPECT_EQ(a.channelsPerController, b.channelsPerController);
  EXPECT_EQ(a.missWindows, b.missWindows);
  EXPECT_EQ(a.samplerWindowCycles, b.samplerWindowCycles);
  ASSERT_EQ(a.faultEpochs.size(), b.faultEpochs.size());
  for (std::size_t i = 0; i < a.faultEpochs.size(); ++i) {
    EXPECT_EQ(a.faultEpochs[i].kind, b.faultEpochs[i].kind);
    EXPECT_EQ(a.faultEpochs[i].target, b.faultEpochs[i].target);
    EXPECT_EQ(a.faultEpochs[i].start, b.faultEpochs[i].start);
    EXPECT_EQ(a.faultEpochs[i].end, b.faultEpochs[i].end);
    EXPECT_EQ(a.faultEpochs[i].magnitude, b.faultEpochs[i].magnitude);
  }
  EXPECT_EQ(a.reroutedRequests, b.reroutedRequests);
  EXPECT_EQ(a.faultRetries, b.faultRetries);
  EXPECT_EQ(a.backgroundRequests, b.backgroundRequests);
  EXPECT_EQ(a.throttledCycles, b.throttledCycles);
}

/// The child's end of the result pipe: the only write-only FIFO at
/// fd >= 3 (the standard streams sit below it, and the child closes the
/// supervisor's read ends). -1 when there is none or more than one.
int childResultFd() {
  int found = -1;
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat info;
    if (::fstat(fd, &info) != 0 || !S_ISFIFO(info.st_mode)) {
      continue;
    }
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0 && (flags & O_ACCMODE) == O_WRONLY) {
      if (found >= 0) {
        return -1;
      }
      found = fd;
    }
  }
  return found;
}

/// Work that bypasses the child's own framing: writes `bytes` raw to the
/// result pipe and exits 0, like a child that claims success with a bad
/// result. Exit status 3 means the pipe could not be found or written.
std::function<perf::RunProfile()> exitCleanlyAfterWriting(std::string bytes) {
  return [bytes = std::move(bytes)]() -> perf::RunProfile {
    const int fd = childResultFd();
    if (fd < 0 || !sendAllBytes(fd, bytes, /*isSocket=*/false)) {
      ::_exit(3);
    }
    ::_exit(0);
  };
}

/// Encodes an outcome the way the child does; wire::decodeOutcome is the
/// supervisor's decoder.
std::string encodeOutcome(const RunOutcome& outcome) {
  std::string payload;
  wire::putOutcome(payload, outcome);
  return payload;
}

std::string profileFrame() {
  RunOutcome outcome;
  outcome.profile = sampleProfile();
  return encodeFrame(encodeOutcome(outcome));
}

/// The record a run failure leaves on its own, before the sweep fills in
/// cores, attempts and pool size.
RunFailure runFailure(RunFailureKind kind, std::string error) {
  RunFailure failure;
  failure.kind = kind;
  failure.error = std::move(error);
  return failure;
}

TEST(IpcCodec, OutcomeRoundTripsFullProfile) {
  RunOutcome outcome;
  outcome.profile = sampleProfile();
  const auto back = wire::decodeOutcome(encodeOutcome(outcome));
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_TRUE(back->profile.has_value());
  EXPECT_FALSE(back->failure.has_value());
  expectProfilesEq(*back->profile, *outcome.profile);
}

TEST(IpcCodec, OutcomeRoundTripsEveryRunFailureKind) {
  for (const RunFailureKind kind :
       {RunFailureKind::kException, RunFailureKind::kTimeout,
        RunFailureKind::kCancelled, RunFailureKind::kCrash}) {
    RunOutcome outcome;
    RunFailure& failure = outcome.failure.emplace(
        runFailure(kind, "what() with\nnewlines and \"quotes\""));
    failure.attempts = 2;
    failure.recovered = true;
    failure.signal = SIGSEGV;
    failure.rlimit = "address-space";
    failure.stderrTail = "dying\n";
    const std::string payload = encodeOutcome(outcome);
    // The kind byte follows the has-profile and has-failure flags; the
    // four run kinds keep the wire values 0-3.
    ASSERT_GE(payload.size(), 3u);
    EXPECT_EQ(static_cast<std::uint8_t>(payload[2]),
              static_cast<std::uint8_t>(kind));
    const auto back = wire::decodeOutcome(payload);
    ASSERT_TRUE(back.hasValue()) << back.error().message();
    EXPECT_FALSE(back->profile.has_value());
    ASSERT_TRUE(back->failure.has_value());
    EXPECT_EQ(back->failure->kind, kind);
    EXPECT_EQ(back->failure->attempts, 2);
    EXPECT_TRUE(back->failure->recovered);
    EXPECT_EQ(back->failure->error, failure.error);
    EXPECT_EQ(back->failure->signal, SIGSEGV);
    EXPECT_EQ(back->failure->rlimit, "address-space");
    EXPECT_EQ(back->failure->stderrTail, "dying\n");
  }
}

TEST(IpcCodec, OutcomeRejectsCoordinatorLocalKinds) {
  RunOutcome outcome;
  outcome.failure = runFailure(RunFailureKind::kException, "x");
  std::string payload = encodeOutcome(outcome);
  for (const RunFailureKind kind :
       {RunFailureKind::kWorkerLost, RunFailureKind::kHandshake,
        RunFailureKind::kFrameCorrupt}) {
    payload[2] = static_cast<char>(kind);
    const auto back = wire::decodeOutcome(payload);
    ASSERT_FALSE(back.hasValue()) << toString(kind);
    EXPECT_NE(back.error().message().find("failure kind"), std::string::npos)
        << back.error().message();
  }
}

TEST(IpcCodec, OutcomeRejectsTruncationEverywhere) {
  RunOutcome outcome;
  outcome.profile = sampleProfile();
  outcome.failure = runFailure(RunFailureKind::kCrash, "boom");
  const std::string payload = encodeOutcome(outcome);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto r = wire::decodeOutcome(payload.substr(0, len));
    EXPECT_FALSE(r.hasValue()) << "prefix of " << len << " bytes";
  }
  const auto trailing = wire::decodeOutcome(payload + "x");
  ASSERT_FALSE(trailing.hasValue());
  EXPECT_NE(trailing.error().message().find("trailing bytes"),
            std::string::npos);
}

/// The failure record of an outcome that must have failed.
RunFailure failureOf(const RunOutcome& outcome) {
  EXPECT_FALSE(outcome.profile.has_value());
  EXPECT_TRUE(outcome.failure.has_value());
  return outcome.failure.value_or(RunFailure{});
}

TEST(ProcessRunner, ShipsProfileBackBitExact) {
  const RunOutcome outcome = runInChild([] { return sampleProfile(); });
  ASSERT_TRUE(outcome.profile.has_value())
      << (outcome.failure ? outcome.failure->error : "");
  EXPECT_FALSE(outcome.failure.has_value());
  expectProfilesEq(*outcome.profile, sampleProfile());
}

TEST(ProcessRunner, PropagatesExceptionsAsData) {
  const RunFailure failure = failureOf(runInChild([]() -> perf::RunProfile {
    throw std::runtime_error("boom in the child");
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kException);
  EXPECT_EQ(failure.error, "boom in the child");
  EXPECT_EQ(failure.signal, 0);
}

TEST(ProcessRunner, PropagatesRunAbortedAsData) {
  // The abort reason becomes the failure kind: a cycle budget is a
  // timeout, any other abort a cancel.
  RunFailure failure = failureOf(runInChild([]() -> perf::RunProfile {
    throw RunAborted(AbortReason::kCycleBudget, 4242, "over budget");
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kTimeout);
  EXPECT_EQ(failure.error, "over budget");

  failure = failureOf(runInChild([]() -> perf::RunProfile {
    throw RunAborted(AbortReason::kCancelled, 7, "stopped");
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kCancelled);
  EXPECT_EQ(failure.error, "stopped");
  EXPECT_EQ(failure.signal, 0);
}

TEST(ProcessRunner, ReportsSigkillDeath) {
  // SIGKILL cannot be caught by any runtime (sanitizers included), so the
  // expectation holds everywhere.
  const RunFailure failure = failureOf(runInChild([]() -> perf::RunProfile {
    std::raise(SIGKILL);
    return {};
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash);
  EXPECT_EQ(failure.signal, SIGKILL);
  EXPECT_TRUE(failure.rlimit.empty()) << failure.rlimit;
  EXPECT_NE(failure.error.find("SIGKILL"), std::string::npos) << failure.error;
}

TEST(ProcessRunner, ReportsSegfaultDeath) {
  const RunFailure failure = failureOf(runInChild([]() -> perf::RunProfile {
    // Through a volatile so no compiler proves (and rejects) the trap.
    volatile int* target = nullptr;
    *target = 42;
    return {};
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash) << failure.error;
#if !OCCM_UNDER_SANITIZER
  EXPECT_EQ(failure.signal, SIGSEGV) << failure.error;
#endif
}

TEST(ProcessRunner, ReportsAbortDeath) {
  const RunFailure failure = failureOf(runInChild([]() -> perf::RunProfile {
    std::fprintf(stderr, "dying on purpose\n");
    std::abort();
  }));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash);
#if !OCCM_UNDER_SANITIZER
  EXPECT_EQ(failure.signal, SIGABRT) << failure.error;
#endif
  // abort() without the OOM marker must not read as a memory-budget kill.
  EXPECT_TRUE(failure.rlimit.empty()) << failure.rlimit;
  EXPECT_NE(failure.stderrTail.find("dying on purpose"), std::string::npos)
      << failure.stderrTail;
}

TEST(ProcessRunner, MemoryBudgetDeathIsClassifiedAsAddressSpace) {
#if OCCM_UNDER_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS fights sanitizer shadow mappings";
#else
  ProcessRunnerConfig config;
  config.limits.memoryBytes = std::uint64_t{256} << 20;
  const RunFailure failure = failureOf(runInChild(
      []() -> perf::RunProfile {
        // Touch every allocation so the address space genuinely fills.
        std::vector<char*> hoard;
        for (;;) {
          char* block = new char[8 << 20];
          std::memset(block, 0x5A, 8 << 20);
          hoard.push_back(block);
        }
      },
      config));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash) << failure.error;
  EXPECT_EQ(failure.rlimit, "address-space") << failure.error;
  EXPECT_NE(failure.stderrTail.find(fault::kOutOfMemoryMarker),
            std::string::npos)
      << failure.stderrTail;
#endif
}

TEST(ProcessRunner, StderrTailKeepsLastBytesSanitized) {
  ProcessRunnerConfig config;
  config.stderrTailBytes = 64;
  const RunFailure failure = failureOf(runInChild(
      []() -> perf::RunProfile {
        for (int i = 0; i < 1000; ++i) {
          std::fprintf(stderr, "line %04d\n", i);
        }
        std::fprintf(stderr, "\x01\x02 the final words");
        std::fflush(stderr);
        std::abort();
      },
      config));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash);
  EXPECT_LE(failure.stderrTail.size(), 64u);
  // The tail keeps the *last* bytes written...
  EXPECT_NE(failure.stderrTail.find("the final words"), std::string::npos)
      << failure.stderrTail;
  // ...not the first, and control bytes arrive sanitized to '.'.
  EXPECT_EQ(failure.stderrTail.find("line 0000"), std::string::npos);
  EXPECT_EQ(failure.stderrTail.find('\x01'), std::string::npos);
  EXPECT_NE(failure.stderrTail.find(". the final words"), std::string::npos)
      << failure.stderrTail;
}

TEST(ProcessRunner, SupervisorKillsChildWhenTokenFires) {
  CancellationSource stop;
  ProcessRunnerConfig config;
  config.cancel = stop.token();
  std::thread trigger([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.requestStop();
  });
  const RunFailure failure = failureOf(runInChild(
      []() -> perf::RunProfile {
        // Without the supervisor's SIGKILL this child would outlive any
        // reasonable test timeout.
        std::this_thread::sleep_for(std::chrono::seconds(300));
        return {};
      },
      config));
  trigger.join();
  EXPECT_EQ(failure.kind, RunFailureKind::kCancelled) << failure.error;
  EXPECT_EQ(failure.signal, SIGKILL);
  EXPECT_NE(failure.error.find("killed by the supervisor"), std::string::npos)
      << failure.error;
}

// A clean exit (status 0) with a bad frame reads "child exited cleanly":
// the error text is what tells it apart from a death.
TEST(ProcessRunner, CleanExitWithoutAFrameIsACrash) {
  const RunFailure failure =
      failureOf(runInChild(exitCleanlyAfterWriting("")));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash);
  EXPECT_EQ(failure.signal, 0);
  EXPECT_NE(failure.error.find("child exited cleanly but its result frame "
                               "is invalid: no result frame"),
            std::string::npos)
      << failure.error;
}

TEST(ProcessRunner, TrailingBytesAfterTheFrameAreACrash) {
  // Control: the same raw write of exactly one frame is accepted.
  const RunOutcome exact = runInChild(exitCleanlyAfterWriting(profileFrame()));
  ASSERT_TRUE(exact.profile.has_value())
      << (exact.failure ? exact.failure->error : "");
  expectProfilesEq(*exact.profile, sampleProfile());

  const RunFailure stray =
      failureOf(runInChild(exitCleanlyAfterWriting(profileFrame() + "x")));
  EXPECT_EQ(stray.kind, RunFailureKind::kCrash);
  EXPECT_NE(stray.error.find("child exited cleanly but its result frame is "
                             "invalid: 1 byte(s) after"),
            std::string::npos)
      << stray.error;

  const RunFailure twice = failureOf(
      runInChild(exitCleanlyAfterWriting(profileFrame() + profileFrame())));
  EXPECT_EQ(twice.kind, RunFailureKind::kCrash);
  EXPECT_NE(twice.error.find("child exited cleanly but its result frame is "
                             "invalid: 2 result frames"),
            std::string::npos)
      << twice.error;

  // A valid frame around an outcome with neither profile nor failure.
  const RunFailure empty = failureOf(runInChild(
      exitCleanlyAfterWriting(encodeFrame(encodeOutcome(RunOutcome{})))));
  EXPECT_EQ(empty.kind, RunFailureKind::kCrash);
  EXPECT_NE(empty.error.find("child exited cleanly but its result message "
                             "is invalid"),
            std::string::npos)
      << empty.error;
}

TEST(ProcessRunner, OversizedResultIsDrainedAndRejected) {
  // A header declaring ~2 GiB, then 4 MiB — far more than a pipe buffer
  // holds, so the child finishes only if the supervisor keeps draining
  // after it has rejected the frame.
  std::string bytes(kFrameMagic, sizeof kFrameMagic);
  bytes += std::string("\x00\x00\x00\x80", 4);  // u32 LE 2^31
  bytes += std::string(std::size_t{4} << 20, 'x');
  const RunFailure failure = failureOf(runInChild(exitCleanlyAfterWriting(bytes)));
  EXPECT_EQ(failure.kind, RunFailureKind::kCrash);
  EXPECT_NE(failure.error.find("child exited cleanly but its result frame is "
                               "invalid"),
            std::string::npos)
      << failure.error;
  EXPECT_NE(failure.error.find("exceeds the " +
                               std::to_string(kMaxFramePayload) +
                               "-byte cap"),
            std::string::npos)
      << failure.error;
}

}  // namespace
}  // namespace occm::exec
