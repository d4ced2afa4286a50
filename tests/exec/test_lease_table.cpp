// Coordinator lease state machine under a fake clock: grants, expiry and
// backoff re-dispatch, heartbeat eviction, speculative tail duplicates
// with first-result-wins, abandonment past the expiry cap, cancellation
// and local settling — all driven by explicit nowMs values, zero sleeps.

#include "exec/distributed/lease.hpp"

#include <gtest/gtest.h>

#include <string>

namespace occm::exec::dist {
namespace {

/// Deterministic schedule: jitter off, delay(k) = min(400, 100 << k).
LeaseConfig testConfig() {
  LeaseConfig config;
  config.leaseTimeoutMs = 1'000;
  config.heartbeatTimeoutMs = 0;  // heartbeat tests opt in explicitly
  config.redispatchBackoff = {.base = 100, .cap = 400, .jitterPct256 = 0,
                              .seed = 0};
  config.maxExpiries = 0;  // abandonment tests opt in explicitly
  config.speculativeAfterMs = 2'000;
  return config;
}

TEST(LeaseTable, GrantsLowestPendingTaskFirst) {
  LeaseTable table(testConfig(), 3);
  table.workerJoined("a", 0);
  EXPECT_EQ(table.nextAssignment("a", 0), 0u);
  EXPECT_EQ(table.nextAssignment("a", 0), 1u);
  EXPECT_EQ(table.nextAssignment("a", 0), 2u);
  // Nothing pending and its own leases are not speculation targets.
  EXPECT_EQ(table.nextAssignment("a", 0), std::nullopt);
  EXPECT_EQ(table.stats().leasesGranted, 3u);
}

TEST(LeaseTable, UnknownWorkerGetsNothing) {
  LeaseTable table(testConfig(), 1);
  EXPECT_EQ(table.nextAssignment("ghost", 0), std::nullopt);
}

TEST(LeaseTable, FirstResultSettlesTheTask) {
  LeaseTable table(testConfig(), 2);
  table.workerJoined("a", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  EXPECT_TRUE(table.completeTask(0));
  EXPECT_TRUE(table.taskSettled(0));
  EXPECT_FALSE(table.allSettled());
}

TEST(LeaseTable, DuplicateResultIsDiscarded) {
  LeaseTable table(testConfig(), 1);
  table.workerJoined("a", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  EXPECT_TRUE(table.completeTask(0));
  EXPECT_FALSE(table.completeTask(0));
  EXPECT_FALSE(table.completeTask(0));
  EXPECT_EQ(table.stats().duplicatesDiscarded, 2u);
}

TEST(LeaseTable, ExpiredLeaseRequeuesBehindBackoff) {
  LeaseTable table(testConfig(), 1);
  table.workerJoined("a", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  // Not yet: deadline is start + 1000.
  EXPECT_TRUE(table.tick(999).expired.empty());
  const auto events = table.tick(1'000);
  ASSERT_EQ(events.expired.size(), 1u);
  EXPECT_EQ(events.expired[0].first, 0u);
  EXPECT_EQ(events.expired[0].second, "a");
  EXPECT_EQ(table.stats().leasesExpired, 1u);
  EXPECT_EQ(table.stats().redispatches, 1u);
  // Re-queued but gated: delay(0) = 100 ms of backoff.
  EXPECT_EQ(table.nextAssignment("a", 1'000), std::nullopt);
  EXPECT_EQ(table.nextAssignment("a", 1'099), std::nullopt);
  ASSERT_TRUE(table.nextEligibleMs().has_value());
  EXPECT_EQ(*table.nextEligibleMs(), 1'100u);
  EXPECT_EQ(table.nextAssignment("a", 1'100), 0u);
}

TEST(LeaseTable, BackoffGrowsPerExpiryUntilTheCap) {
  LeaseTable table(testConfig(), 1);
  table.workerJoined("a", 0);
  std::uint64_t now = 0;
  // delay(k) for expiry k: 100, 200, 400, 400 (capped).
  const std::uint64_t expectedGate[] = {100, 200, 400, 400};
  for (std::uint64_t gate : expectedGate) {
    ASSERT_EQ(table.nextAssignment("a", now), 0u);
    now += 1'000;  // lease deadline
    ASSERT_EQ(table.tick(now).expired.size(), 1u);
    ASSERT_TRUE(table.nextEligibleMs().has_value());
    EXPECT_EQ(*table.nextEligibleMs(), now + gate);
    now += gate;
  }
  EXPECT_EQ(table.stats().redispatches, 4u);
}

TEST(LeaseTable, SilentWorkerIsEvictedAndItsLeasesExpire) {
  LeaseConfig config = testConfig();
  config.heartbeatTimeoutMs = 500;
  LeaseTable table(config, 2);
  table.workerJoined("a", 0);
  table.workerJoined("b", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  ASSERT_EQ(table.nextAssignment("b", 0), 1u);
  table.heartbeat("b", 400);  // b stays chatty, a goes silent
  const auto events = table.tick(500);
  ASSERT_EQ(events.evictedWorkers.size(), 1u);
  EXPECT_EQ(events.evictedWorkers[0], "a");
  ASSERT_EQ(events.expired.size(), 1u);
  EXPECT_EQ(events.expired[0].first, 0u);
  EXPECT_EQ(table.aliveWorkers(), 1u);
  EXPECT_EQ(table.stats().workersEvicted, 1u);
  // a's task is pending again (behind backoff); b's lease is untouched.
  EXPECT_EQ(table.nextAssignment("b", 600), 0u);
}

TEST(LeaseTable, HeartbeatKeepsAWorkerAlive) {
  LeaseConfig config = testConfig();
  config.heartbeatTimeoutMs = 500;
  LeaseTable table(config, 1);
  table.workerJoined("a", 0);
  table.heartbeat("a", 400);
  EXPECT_TRUE(table.tick(500).evictedWorkers.empty());
  EXPECT_EQ(table.aliveWorkers(), 1u);
  const auto events = table.tick(900);  // 400 + 500: now overdue
  ASSERT_EQ(events.evictedWorkers.size(), 1u);
  EXPECT_EQ(table.aliveWorkers(), 0u);
}

TEST(LeaseTable, IdleWorkerSpeculatesOnTheOldestStraggler) {
  LeaseConfig config = testConfig();
  config.leaseTimeoutMs = 0;  // stragglers never expire in this test
  LeaseTable table(config, 1);
  table.workerJoined("a", 0);
  table.workerJoined("b", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  // Too early: the lease is not yet speculativeAfterMs old.
  EXPECT_EQ(table.nextAssignment("b", 1'999), std::nullopt);
  // Old enough: b gets a duplicate of a's straggling task.
  EXPECT_EQ(table.nextAssignment("b", 2'000), 0u);
  EXPECT_EQ(table.stats().speculativeLeases, 1u);
  // The speculative sibling does not spawn further duplicates for a.
  EXPECT_EQ(table.nextAssignment("a", 5'000), std::nullopt);
  // b finishes first: its result settles the task.
  EXPECT_TRUE(table.completeTask(0));
  EXPECT_TRUE(table.allSettled());
  // a's late result for the settled task is discarded.
  EXPECT_FALSE(table.completeTask(0));
  EXPECT_EQ(table.stats().duplicatesDiscarded, 1u);
}

TEST(LeaseTable, DisconnectTearsDownLeasesAndRequeues) {
  LeaseTable table(testConfig(), 2);
  table.workerJoined("a", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  ASSERT_EQ(table.nextAssignment("a", 0), 1u);
  const auto torn = table.workerLeft("a", 100);
  ASSERT_EQ(torn.size(), 2u);
  EXPECT_EQ(table.aliveWorkers(), 0u);
  // Both tasks are pending again behind delay(0) = 100 ms.
  table.workerJoined("b", 100);
  EXPECT_EQ(table.nextAssignment("b", 100), std::nullopt);
  EXPECT_EQ(table.nextAssignment("b", 200), 0u);
  EXPECT_EQ(table.nextAssignment("b", 200), 1u);
}

TEST(LeaseTable, AbandonsATaskPastTheExpiryCap) {
  LeaseConfig config = testConfig();
  config.maxExpiries = 2;
  LeaseTable table(config, 1);
  table.workerJoined("a", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  ASSERT_TRUE(table.tick(1'000).abandoned.empty());  // expiry 1 of 2
  ASSERT_EQ(table.nextAssignment("a", 1'100), 0u);
  const auto events = table.tick(2'100);  // expiry 2: cap reached
  ASSERT_EQ(events.abandoned.size(), 1u);
  EXPECT_EQ(events.abandoned[0], 0u);
  EXPECT_EQ(table.stats().tasksAbandoned, 1u);
  EXPECT_FALSE(table.allSettled());
  EXPECT_TRUE(table.drained());  // nothing left for the fleet to do
  EXPECT_EQ(table.nextAssignment("a", 9'000), std::nullopt);
  // A straggler that outlived the cap still wins: valid work is valid.
  EXPECT_TRUE(table.completeTask(0));
  EXPECT_TRUE(table.allSettled());
  EXPECT_EQ(table.stats().tasksAbandoned, 0u);
}

TEST(LeaseTable, CancelAllClosesEveryLeaseWithoutSettling) {
  LeaseTable table(testConfig(), 2);
  table.workerJoined("a", 0);
  table.workerJoined("b", 0);
  ASSERT_EQ(table.nextAssignment("a", 0), 0u);
  ASSERT_EQ(table.nextAssignment("b", 0), 1u);
  table.cancelAll();
  EXPECT_FALSE(table.taskSettled(0));
  EXPECT_FALSE(table.taskSettled(1));
  // A resume re-dispatches both tasks immediately (no backoff for
  // cancellation), so b's lease on task 1 was closed too.
  EXPECT_EQ(table.nextAssignment("a", 300), 0u);
  EXPECT_EQ(table.nextAssignment("a", 300), 1u);
}

TEST(LeaseTable, SettleLocalShortCircuitsTheFleet) {
  LeaseTable table(testConfig(), 2);
  table.workerJoined("a", 0);
  table.settleLocal(0);  // restored from a checkpoint before dispatch
  EXPECT_TRUE(table.taskSettled(0));
  // The fleet never sees task 0 again.
  EXPECT_EQ(table.nextAssignment("a", 10), 1u);
  EXPECT_EQ(table.nextAssignment("a", 10), std::nullopt);
  // A late fleet result for the locally-settled task is a duplicate.
  EXPECT_FALSE(table.completeTask(0));
  table.settleLocal(1);  // local fallback finished the leased task
  EXPECT_TRUE(table.allSettled());
}

}  // namespace
}  // namespace occm::exec::dist
