#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"
#include "topology/topology_map.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {
namespace {

// testNuma4: 2 sockets x 2 cores, L1 1 KiB/core (hit 2), L2 8 KiB/socket
// (hit 10). Cores 0,1 on socket 0; cores 2,3 on socket 1.

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() : topo_(topology::testNuma4()), hierarchy_(topo_) {}

  topology::TopologyMap topo_;
  CacheHierarchy hierarchy_;
};

TEST_F(HierarchyTest, ColdMissGoesOffChipThenHitsL1) {
  const AccessResult miss = hierarchy_.access(0, 0, false);
  EXPECT_EQ(miss.hitLevel, 0);
  EXPECT_TRUE(miss.offChip);
  EXPECT_EQ(miss.latency, 2u + 10u);  // searched both levels
  const AccessResult hit = hierarchy_.access(0, 0, false);
  EXPECT_EQ(hit.hitLevel, 1);
  EXPECT_FALSE(hit.offChip);
  EXPECT_EQ(hit.latency, 2u);
}

TEST_F(HierarchyTest, SameSocketNeighborHitsSharedLlc) {
  (void)hierarchy_.access(0, 0, false);
  const AccessResult res = hierarchy_.access(1, 0, false);
  EXPECT_EQ(res.hitLevel, 2);
  EXPECT_FALSE(res.offChip);
}

TEST_F(HierarchyTest, OtherSocketMissesOffChip) {
  (void)hierarchy_.access(0, 0, false);
  const AccessResult res = hierarchy_.access(2, 0, false);
  EXPECT_TRUE(res.offChip);
  EXPECT_FALSE(res.coherenceMiss);  // plain cold miss, not invalidation
}

TEST_F(HierarchyTest, LlcMissCounterAggregates) {
  (void)hierarchy_.access(0, 0, false);
  (void)hierarchy_.access(0, 64, false);
  (void)hierarchy_.access(2, 128, false);
  EXPECT_EQ(hierarchy_.llcMisses(), 3u);
}

TEST_F(HierarchyTest, CapacityEvictionWritesBack) {
  // Dirty a line, then stream 4x the 8 KiB LLC through core 0 to force
  // the dirty line out of the LLC.
  (void)hierarchy_.access(0, 0, true);
  bool sawWriteback = false;
  for (Addr a = 1 * kMiB; a < 1 * kMiB + 32 * kKiB; a += 64) {
    const AccessResult res = hierarchy_.access(0, a, false);
    sawWriteback = sawWriteback || (res.writeback && res.writebackLine == 0);
  }
  EXPECT_TRUE(sawWriteback);
}

TEST_F(HierarchyTest, SameSocketFalseSharingStaysOnChip) {
  // Writer core 0 and reader core 1 share the socket LLC: after the
  // write-invalidation, the reader refetches from the LLC, not memory.
  (void)hierarchy_.access(1, 0, false);  // reader caches the line
  (void)hierarchy_.access(0, 0, true);   // writer invalidates reader's L1
  const AccessResult res = hierarchy_.access(1, 0, false);
  EXPECT_FALSE(res.offChip);
  EXPECT_EQ(res.hitLevel, 2);
}

TEST_F(HierarchyTest, CrossSocketFalseSharingGoesOffChip) {
  (void)hierarchy_.access(2, 0, false);  // socket-1 core caches the line
  (void)hierarchy_.access(0, 0, true);   // socket-0 write invalidates it
  const AccessResult res = hierarchy_.access(2, 0, false);
  EXPECT_TRUE(res.offChip);
  EXPECT_TRUE(res.coherenceMiss);
}

TEST_F(HierarchyTest, PrivateAddressesSkipTheDirectory) {
  const Addr priv = trace::AddressSpace::kPrivateBase;
  (void)hierarchy_.access(0, priv, true);
  (void)hierarchy_.access(0, priv, true);
  EXPECT_EQ(hierarchy_.coherenceStats().upgrades, 0u);
}

TEST_F(HierarchyTest, UpgradeAddsLatency) {
  (void)hierarchy_.access(1, 0, false);
  (void)hierarchy_.access(0, 0, false);
  // Core 0 now upgrades a shared line: extra invalidation latency beyond
  // a plain L1 hit.
  const AccessResult upgrade = hierarchy_.access(0, 0, true);
  EXPECT_EQ(upgrade.hitLevel, 1);
  EXPECT_GT(upgrade.latency, 2u);
}

TEST_F(HierarchyTest, FlushDropsContentKeepsNothingCached) {
  (void)hierarchy_.access(0, 0, false);
  hierarchy_.flush();
  const AccessResult res = hierarchy_.access(0, 0, false);
  EXPECT_TRUE(res.offChip);
}

TEST_F(HierarchyTest, FlushKeepsCoherenceCounters) {
  (void)hierarchy_.access(2, 0, false);
  (void)hierarchy_.access(0, 0, true);   // upgrade: invalidates core 2
  (void)hierarchy_.access(2, 0, false);  // coherence miss
  const CoherenceStats before = hierarchy_.coherenceStats();
  ASSERT_EQ(before.upgrades, 1u);
  ASSERT_EQ(before.coherenceMisses, 1u);
  hierarchy_.flush();
  EXPECT_EQ(hierarchy_.coherenceStats().upgrades, before.upgrades);
  EXPECT_EQ(hierarchy_.coherenceStats().invalidationsSent,
            before.invalidationsSent);
  EXPECT_EQ(hierarchy_.coherenceStats().coherenceMisses,
            before.coherenceMisses);
  // The directory state is gone: a remote write after the flush finds no
  // sharer to invalidate.
  (void)hierarchy_.access(0, 0, true);
  EXPECT_EQ(hierarchy_.coherenceStats().upgrades, before.upgrades);
}

TEST_F(HierarchyTest, StatsPerInstanceAccessible) {
  (void)hierarchy_.access(0, 0, false);
  EXPECT_EQ(hierarchy_.stats(1, 0).accesses, 1u);
  EXPECT_EQ(hierarchy_.stats(1, 1).accesses, 0u);
  EXPECT_EQ(hierarchy_.stats(2, 0).accesses, 1u);
  EXPECT_EQ(hierarchy_.levels(), 2);
  EXPECT_EQ(hierarchy_.lineSize(), 64u);
}

TEST(HierarchySmt, SiblingsSharePrivateCaches) {
  topology::TopologyMap topo(topology::intelNuma24());
  CacheHierarchy hierarchy(topo);
  // Logical cores 0 and 1 are SMT siblings (same physical core).
  (void)hierarchy.access(0, 0, false);
  const AccessResult res = hierarchy.access(1, 0, false);
  EXPECT_EQ(res.hitLevel, 1);
}

TEST(HierarchyEpPattern, MissesGrowWithWriterSpread) {
  // EP's mechanism: a falsely shared line written by cores on both
  // sockets produces off-chip coherence misses; written by cores of one
  // socket it does not.
  topology::TopologyMap topo(topology::testNuma4());
  {
    CacheHierarchy sameSocket(topo);
    for (int i = 0; i < 100; ++i) {
      (void)sameSocket.access(i % 2 == 0 ? 0 : 1, 0, true);
    }
    EXPECT_LE(sameSocket.llcMisses(), 2u);
  }
  {
    CacheHierarchy crossSocket(topo);
    std::uint64_t coherenceMisses = 0;
    for (int i = 0; i < 100; ++i) {
      const auto res = crossSocket.access(i % 2 == 0 ? 0 : 2, 0, true);
      coherenceMisses += res.coherenceMiss ? 1 : 0;
    }
    EXPECT_GT(coherenceMisses, 90u);
  }
}

}  // namespace
}  // namespace occm::cache
