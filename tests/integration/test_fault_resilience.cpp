// Resilience integration: a sweep that hits a scripted controller outage
// AND a run that throws mid-sweep must still complete, record what broke,
// retry with a perturbed seed, and hand the survivors to the model.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "analysis/sweep_state.hpp"
#include "common/error.hpp"
#include "core/contention_model.hpp"
#include "exec/wire_codec.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

SweepConfig baseConfig() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  return config;
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A profile's full wire encoding: equal bytes mean equal profiles.
std::string wireBytes(const perf::RunProfile& profile) {
  std::string out;
  exec::wire::putProfile(out, profile);
  return out;
}

TEST(FaultResilience, SweepSurvivesOutageAndThrowingRun) {
  SweepConfig config = baseConfig();
  // Node 1 drops out mid-run; node 0 absorbs its traffic.
  config.sim.faultPlan.controllerOutage(1, 20'000, 60'000);
  // ...and the 3-core run dies on its first attempt.
  config.beforeRun = [](int cores, int attempt) {
    if (cores == 3 && attempt == 0) {
      throw std::runtime_error("synthetic crash in 3-core run");
    }
  };

  SweepResult sweep;
  ASSERT_NO_THROW(sweep = runSweep(config));

  // Every core count completed: 3 recovered on the retry.
  ASSERT_EQ(sweep.profiles.size(), 4u);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].cores, 3);
  EXPECT_EQ(sweep.failures[0].attempts, 2);
  EXPECT_TRUE(sweep.failures[0].recovered);
  EXPECT_NE(sweep.failures[0].error.find("synthetic crash"),
            std::string::npos);
  EXPECT_NE(sweep.diagnostics().find("recovered"), std::string::npos);

  // The survivors still feed the model.
  const auto fitted = model::ContentionModel::tryFit(
      model::shapeOf(config.machine), sweep.points());
  ASSERT_TRUE(fitted.hasValue()) << fitted.error().describe();
  EXPECT_GT(fitted->predictCycles(4), 0.0);
}

TEST(FaultResilience, PermanentFailureIsRecordedNotThrown) {
  SweepConfig config = baseConfig();
  config.beforeRun = [](int cores, int /*attempt*/) {
    if (cores == 2) {
      throw std::runtime_error("2-core run is cursed");
    }
  };

  SweepResult sweep;
  ASSERT_NO_THROW(sweep = runSweep(config));

  ASSERT_EQ(sweep.profiles.size(), 3u);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].cores, 2);
  EXPECT_EQ(sweep.failures[0].attempts, config.maxAttempts);
  EXPECT_FALSE(sweep.failures[0].recovered);
  EXPECT_NE(sweep.diagnostics().find("gave up"), std::string::npos);

  // The missing run is diagnosable, not a crash.
  try {
    (void)sweep.at(2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("core counts present"),
              std::string::npos);
  }
  // omega still works from the surviving 1-core run.
  EXPECT_EQ(sweep.omegas().size(), 3u);
}

TEST(FaultResilience, SingleAttemptMeansNoRetry) {
  SweepConfig config = baseConfig();
  config.coreCounts = {1, 2};
  config.maxAttempts = 1;
  int calls = 0;
  config.beforeRun = [&calls](int cores, int /*attempt*/) {
    if (cores == 2) {
      ++calls;
      throw std::runtime_error("no second chances");
    }
  };
  const SweepResult sweep = runSweep(config);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].attempts, 1);
  EXPECT_FALSE(sweep.failures[0].recovered);
}

TEST(FaultResilience, CheckpointResumesCompletedRuns) {
  const std::string path = tempPath("occm_resilience_ckpt.json");
  std::filesystem::remove(path);

  SweepConfig config = baseConfig();
  config.checkpointPath = path;
  const SweepResult first = runSweep(config);
  EXPECT_EQ(first.restoredRuns, 0u);
  ASSERT_TRUE(std::filesystem::exists(path));

  const SweepResult second = runSweep(config);
  EXPECT_EQ(second.restoredRuns, 4u);
  ASSERT_EQ(second.profiles.size(), 4u);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(second.at(n).counters.totalCycles,
              first.at(n).counters.totalCycles);
    // A restored profile is the checkpointed one in full.
    EXPECT_EQ(wireBytes(second.at(n)), wireBytes(first.at(n))) << "n = " << n;
  }
  EXPECT_NE(second.diagnostics().find("restored"), std::string::npos);

  std::filesystem::remove(path);
}

TEST(FaultResilience, MismatchedCheckpointIsIgnored) {
  const std::string path = tempPath("occm_resilience_mismatch.json");
  std::filesystem::remove(path);

  SweepConfig config = baseConfig();
  config.checkpointPath = path;
  (void)runSweep(config);

  config.sim.seed += 1;  // different identity => stale checkpoint
  const SweepResult resumed = runSweep(config);
  EXPECT_EQ(resumed.restoredRuns, 0u);

  std::filesystem::remove(path);
}

TEST(FaultResilience, CheckpointFromAnotherConfigIsNotReused) {
  // Neither change touches program, machine, seed or threads, yet both
  // change what every run measures: a checkpoint written under one must
  // not be restored under the other.
  SweepConfig faulted = baseConfig();
  faulted.sim.faultPlan.controllerOutage(1, 20'000, 60'000)
      .coreThrottle(1, 10'000, 50'000, 2.0);
  SweepConfig firstTouch = baseConfig();
  firstTouch.sim.memory.placement = mem::PlacementPolicy::kFirstTouch;

  for (const auto& [checkpointed, resumed] :
       {std::pair{faulted, baseConfig()}, std::pair{baseConfig(), firstTouch}}) {
    const std::string path = tempPath("occm_resilience_config.json");
    std::filesystem::remove(path);

    SweepConfig writer = checkpointed;
    writer.checkpointPath = path;
    (void)runSweep(writer);
    ASSERT_TRUE(std::filesystem::exists(path));

    const SweepResult fresh = runSweep(resumed);
    SweepConfig resume = resumed;
    resume.checkpointPath = path;
    const SweepResult merged = runSweep(resume);
    EXPECT_EQ(merged.restoredRuns, 0u) << merged.diagnostics();
    EXPECT_EQ(sweepToCsv(merged), sweepToCsv(fresh));
    EXPECT_NE(sweepToCsv(merged), sweepToCsv(runSweep(checkpointed)));

    std::filesystem::remove(path);
  }
}

TEST(FaultResilience, CheckpointRoundTrips) {
  perf::RunProfile one;
  one.program = "CG.S";
  one.activeCores = 1;
  one.counters.totalCycles = 1'000'000;
  perf::RunProfile four = one;
  four.activeCores = 4;
  four.counters.totalCycles = 4'500'000;
  four.controllerStats.resize(2);
  four.controllerStats[1].requests = 77;

  SweepCheckpoint ckpt;
  ckpt.program = "CG.S";
  ckpt.machine = "testNuma4";
  ckpt.config = 0xDEADBEEFU;
  ckpt.outcomes[1].profile = one;
  ckpt.outcomes[3].failure = RunFailure{3, 2, "synthetic \"quoted\" crash\n",
                                        false, 1, RunFailureKind::kException,
                                        0, "", "", ""};
  ckpt.outcomes[4].profile = four;

  const std::string file = ckpt.encode();
  const auto parsed = SweepCheckpoint::parseChecked(file);
  ASSERT_TRUE(parsed.hasValue()) << parsed.error().message();
  EXPECT_TRUE(parsed->matches(0xDEADBEEFU));
  EXPECT_FALSE(parsed->matches(0xDEADBEEEU));
  EXPECT_EQ(parsed->program, "CG.S");
  EXPECT_EQ(parsed->machine, "testNuma4");
  ASSERT_EQ(parsed->outcomes.size(), 3u);
  ASSERT_NE(parsed->find(4), nullptr);
  EXPECT_EQ(parsed->find(4)->counters.totalCycles, 4'500'000u);
  EXPECT_EQ(wireBytes(*parsed->find(4)), wireBytes(four));
  EXPECT_EQ(parsed->find(2), nullptr);
  EXPECT_EQ(parsed->find(3), nullptr);  // a failure alone restores nothing
  ASSERT_TRUE(parsed->outcomes.at(3).failure.has_value());
  EXPECT_EQ(parsed->outcomes.at(3).failure->error,
            "synthetic \"quoted\" crash\n");
  EXPECT_EQ(parsed->outcomes.at(3).failure->attempts, 2);
  EXPECT_EQ(parsed->encode(), file);

  EXPECT_FALSE(SweepCheckpoint::parseChecked("not a checkpoint").hasValue());
  EXPECT_FALSE(SweepCheckpoint::parseChecked("").hasValue());
}

}  // namespace
}  // namespace occm::analysis
