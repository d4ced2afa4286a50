// One classification on every path. The attempt loop (runCoreCountTask)
// sees each attempt as one RunOutcome whether it ran in-process or in a
// forked child, and a fleet worker ships that outcome back in its
// kResult. So the same scripted failure must leave field-equal RunFailure
// records in-process, isolated, and through the fleet: runSweepJob where
// a job can carry the script (the cycle budget), and otherwise the kResult
// codec plus resultToOutcome, which is what the coordinator merges (a job
// carries no beforeRun hook and no sweep token).
//
// Skipped under ThreadSanitizer for the reason test_isolated_sweep gives:
// fork() from a threaded tsan process can deadlock the child.

#include <gtest/gtest.h>

#include <csignal>
#include <functional>
#include <stdexcept>
#include <string>

#include "analysis/distributed_sweep.hpp"
#include "analysis/sweep_task.hpp"
#include "exec/distributed/protocol.hpp"
#include "exec/wire_codec.hpp"
#include "topology/presets.hpp"

#if defined(__SANITIZE_THREAD__)
#define OCCM_UNDER_TSAN 1
#endif
#if !defined(OCCM_UNDER_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCCM_UNDER_TSAN 1
#endif
#endif
#ifndef OCCM_UNDER_TSAN
#define OCCM_UNDER_TSAN 0
#endif

#if OCCM_UNDER_TSAN
#define OCCM_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based isolation is not exercised under tsan"
#else
#define OCCM_SKIP_UNDER_TSAN() static_cast<void>(0)
#endif

namespace occm::analysis {
namespace {

constexpr int kCores = 2;

SweepConfig baseConfig() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  config.maxAttempts = 2;
  return config;
}

/// What a scripted attempt sees: the hook, the sweep token, the budget.
struct Script {
  std::function<void(int cores, int attempt)> beforeRun;
  CancellationToken stop;
  Cycles cycleBudget = 0;
};

/// One core count through the attempt loop, as a serial sweep runs it.
TaskOutcome runTask(const Script& script, bool isolated) {
  const SweepConfig config = baseConfig();
  RunTaskContext context;
  context.machine = &config.machine;
  context.workload = &config.workload;
  context.sim = &config.sim;
  context.cycleBudget = script.cycleBudget;
  context.isolation.enabled = isolated;
  context.maxAttempts = config.maxAttempts;
  context.sweepCancel = script.stop;
  context.beforeRun = script.beforeRun;
  return runCoreCountTask(context, kCores);
}

/// The coordinator's view of a worker's result: through the kResult
/// codec, then merged into the task's slot.
TaskOutcome throughTheWire(exec::dist::TaskResult result) {
  exec::dist::WireMessage message;
  message.kind = exec::dist::WireMessage::Kind::kResult;
  message.result = std::move(result);
  const auto decoded =
      exec::dist::decodeMessage(exec::dist::encodeMessage(message));
  EXPECT_TRUE(decoded.hasValue()) << decoded.error().message();
  return decoded.hasValue() ? resultToOutcome(decoded->result, kCores)
                            : TaskOutcome{};
}

/// A local outcome as a worker would report it.
TaskOutcome throughTheWire(const TaskOutcome& outcome) {
  exec::dist::TaskResult result;
  result.outcome = outcome;
  return throughTheWire(std::move(result));
}

std::string wireBytes(const std::optional<perf::RunProfile>& profile) {
  std::string out;
  if (profile.has_value()) {
    exec::wire::putProfile(out, *profile);
  }
  return out;
}

void expectSameRecord(const TaskOutcome& a, const TaskOutcome& b,
                      const char* path) {
  SCOPED_TRACE(path);
  EXPECT_EQ(wireBytes(a.profile), wireBytes(b.profile));
  ASSERT_TRUE(a.failure.has_value());
  ASSERT_TRUE(b.failure.has_value());
  EXPECT_EQ(a.failure->kind, b.failure->kind);
  EXPECT_EQ(a.failure->attempts, b.failure->attempts);
  EXPECT_EQ(a.failure->recovered, b.failure->recovered);
  EXPECT_EQ(a.failure->error, b.failure->error);
  EXPECT_EQ(a.failure->cores, b.failure->cores);
  EXPECT_EQ(a.failure->signal, b.failure->signal);
  EXPECT_EQ(a.failure->rlimit, b.failure->rlimit);
  EXPECT_EQ(a.failure->stderrTail, b.failure->stderrTail);
}

TEST(AttemptClassification, BeforeRunThrowRecoversOnTheRetryOnEveryPath) {
  OCCM_SKIP_UNDER_TSAN();
  Script script;
  script.beforeRun = [](int /*cores*/, int attempt) {
    if (attempt == 0) {
      throw std::runtime_error("scripted failure on attempt 0");
    }
  };
  const TaskOutcome local = runTask(script, /*isolated=*/false);
  ASSERT_TRUE(local.profile.has_value());
  ASSERT_TRUE(local.failure.has_value());
  EXPECT_EQ(local.failure->kind, RunFailureKind::kException);
  EXPECT_EQ(local.failure->attempts, 2);
  EXPECT_TRUE(local.failure->recovered);
  EXPECT_EQ(local.failure->error, "scripted failure on attempt 0");
  EXPECT_EQ(local.failure->cores, kCores);

  expectSameRecord(local, runTask(script, /*isolated=*/true), "isolated");
  expectSameRecord(local, throughTheWire(local), "fleet wire");
}

TEST(AttemptClassification, CycleBudgetIsATimeoutOnEveryPath) {
  OCCM_SKIP_UNDER_TSAN();
  Script script;
  script.cycleBudget = 1'000;
  const TaskOutcome local = runTask(script, /*isolated=*/false);
  EXPECT_FALSE(local.profile.has_value());
  ASSERT_TRUE(local.failure.has_value());
  EXPECT_EQ(local.failure->kind, RunFailureKind::kTimeout);
  EXPECT_EQ(local.failure->attempts, 1);  // a timeout is not retried
  EXPECT_FALSE(local.failure->recovered);
  EXPECT_NE(local.failure->error.find("budget"), std::string::npos)
      << local.failure->error;

  expectSameRecord(local, runTask(script, /*isolated=*/true), "isolated");

  SweepConfig config = baseConfig();
  config.limits.cycleBudget = script.cycleBudget;
  const exec::dist::JobSpec job =
      makeJobSpec(config, config.workload, kCores, 0);
  for (const bool isolated : {false, true}) {
    IsolationConfig isolation;
    isolation.enabled = isolated;
    expectSameRecord(local, throughTheWire(runSweepJob(job, isolation)),
                     isolated ? "isolated worker" : "worker");
  }
}

TEST(AttemptClassification, SweepWideStopIsACancelOnEveryPath) {
  OCCM_SKIP_UNDER_TSAN();
  // A stop between attempts: the failed attempt is not retried, and the
  // record says cancelled.
  for (const bool isolated : {false, true}) {
    CancellationSource stop;
    Script script;
    script.stop = stop.token();
    script.beforeRun = [&stop](int /*cores*/, int attempt) {
      if (attempt == 0) {
        stop.requestStop();
        throw std::runtime_error("failed while the sweep stopped");
      }
    };
    const TaskOutcome outcome = runTask(script, isolated);
    EXPECT_FALSE(outcome.profile.has_value());
    ASSERT_TRUE(outcome.failure.has_value());
    EXPECT_EQ(outcome.failure->kind, RunFailureKind::kCancelled);
    EXPECT_EQ(outcome.failure->attempts, 1);
    EXPECT_FALSE(outcome.failure->recovered);
    EXPECT_EQ(outcome.failure->error, "failed while the sweep stopped");
    expectSameRecord(outcome, throughTheWire(outcome), "fleet wire");
  }

  // A stop during the attempt: the simulator unwinds at its first
  // cancellation point in-process, and the supervisor kills the child.
  // Both are a cancel on the first attempt; only the error text and the
  // kill's SIGKILL say which way the run was stopped.
  const auto stopMidRun = [](bool isolated) {
    CancellationSource stop;
    Script script;
    script.stop = stop.token();
    script.beforeRun = [&stop](int, int) { stop.requestStop(); };
    return runTask(script, isolated);
  };
  const TaskOutcome local = stopMidRun(false);
  const TaskOutcome isolated = stopMidRun(true);
  for (const TaskOutcome* outcome : {&local, &isolated}) {
    EXPECT_FALSE(outcome->profile.has_value());
    ASSERT_TRUE(outcome->failure.has_value());
    EXPECT_EQ(outcome->failure->kind, RunFailureKind::kCancelled)
        << outcome->failure->error;
    EXPECT_EQ(outcome->failure->attempts, 1);
    EXPECT_FALSE(outcome->failure->recovered);
    expectSameRecord(*outcome, throughTheWire(*outcome), "fleet wire");
  }
  EXPECT_EQ(local.failure->signal, 0);
  EXPECT_EQ(isolated.failure->signal, SIGKILL);
  EXPECT_NE(isolated.failure->error.find("killed by the supervisor"),
            std::string::npos)
      << isolated.failure->error;
}

}  // namespace
}  // namespace occm::analysis
