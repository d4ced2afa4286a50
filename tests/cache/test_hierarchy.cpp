#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/cache_reference.hpp"
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

void expectSameHierarchyStats(const topology::TopologyMap& topo,
                               const ReferenceHierarchy& want,
                               const CacheHierarchy& got,
                               const std::string& context) {
  for (const auto& level : topo.spec().caches) {
    for (int inst = 0; inst < topo.cacheInstanceCount(level); ++inst) {
      expectSameStats(want.stats(level.level, inst),
                      got.stats(level.level, inst),
                      context + " L" + std::to_string(level.level) + "#" +
                          std::to_string(inst));
    }
  }
  expectSameStats(want.coherenceStats(), got.coherenceStats(), context);
}

/// testNuma4 with SMT pairs and the sharing inverted: a socket-shared L1
/// over per-physical-core L2s. A read that hits the L1 it shares with the
/// last writer can still find the line in an L2 that an SMT sibling
/// filled, which the walk never reached.
topology::MachineSpec sharedL1OverPrivateL2() {
  topology::MachineSpec m = topology::testNuma4();
  m.name = "test NUMA, SMT, socket-shared L1 over private L2";
  m.smtPerCore = 2;
  m.caches[0].scope = topology::CacheScope::kPerSocket;
  m.caches[1].scope = topology::CacheScope::kPerPhysicalCore;
  m.validate();
  return m;
}

// The one-pass walk (one probe per level, fills from the walk's probes)
// against ReferenceHierarchy, which steps MRU-list caches and the
// std::map directory in the original order: drop every copy a remote
// write invalidated, walk, fill and sink dirty victims, then invalidate
// the sharers of a write. Random multi-core streams mix each core's hot
// and wide private lines with hot and wide shared lines, a third of them
// writes, on the paper machines and the test presets, plus a test
// machine with a socket-shared L1 over private L2s (sharedL1OverPrivateL2),
// the one shape where a level past the hit still owes an invalidation. Every AccessResult
// must match; every instance's CacheStats and the CoherenceStats must
// match along the way and at the end.
TEST(HierarchyOracle, OnePassWalkMatchesReferenceOrder) {
  const std::vector<topology::MachineSpec> machines = {
      topology::intelNuma24(), topology::amdNuma48(), topology::testNuma4(),
      topology::testUma4(), sharedL1OverPrivateL2()};
  Rng rng(0x0E1A55);
  for (const topology::MachineSpec& spec : machines) {
    SCOPED_TRACE(spec.name);
    const topology::TopologyMap topo(spec);
    CacheHierarchy hierarchy(topo);
    ReferenceHierarchy reference(topo);
    const int cores = spec.logicalCores();
    constexpr Addr kLine = 64;
    constexpr Addr kPrivate = trace::AddressSpace::kPrivateBase;
    std::uint64_t writebacks = 0;
    std::uint64_t coherenceMisses = 0;
    std::vector<std::uint64_t> levelHits(spec.caches.size() + 1, 0);
    for (int step = 0; step < 200'000; ++step) {
      const auto core =
          static_cast<CoreId>(rng.next() % static_cast<unsigned>(cores));
      const std::uint64_t pool = rng.next() % 10;
      Addr addr = 0;
      if (pool < 3) {  // hot private lines: L1 hits
        addr = kPrivate + static_cast<Addr>(core) *
                              trace::AddressSpace::kPrivateWindow +
               (rng.next() % 48) * kLine;
      } else if (pool < 6) {  // wide private lines: L2 and LLC traffic
        addr = kPrivate + static_cast<Addr>(core) *
                              trace::AddressSpace::kPrivateWindow +
               (rng.next() % 1024) * kLine;
      } else if (pool < 8) {  // hot shared lines: false sharing
        addr = (rng.next() % 24) * kLine;
      } else {  // wide shared lines
        addr = (rng.next() % 8192) * kLine;
      }
      addr += rng.next() % kLine;
      const bool write = rng.next() % 3 == 0;
      const std::string at = "step " + std::to_string(step);
      const AccessResult want = reference.access(core, addr, write);
      const AccessResult got = hierarchy.access(core, addr, write);
      ASSERT_EQ(want.hitLevel, got.hitLevel) << at;
      ASSERT_EQ(want.latency, got.latency) << at;
      ASSERT_EQ(want.offChip, got.offChip) << at;
      ASSERT_EQ(want.coherenceMiss, got.coherenceMiss) << at;
      ASSERT_EQ(want.writeback, got.writeback) << at;
      ASSERT_EQ(want.writebackLine, got.writebackLine) << at;
      writebacks += got.writeback ? 1 : 0;
      coherenceMisses += got.coherenceMiss ? 1 : 0;
      ++levelHits[static_cast<std::size_t>(got.hitLevel)];
      if (step % 20'000 == 0) {
        expectSameHierarchyStats(topo, reference, hierarchy, at);
      }
    }
    expectSameHierarchyStats(topo, reference, hierarchy, "end");
    // The streams must reach every level, dirty LLC evictions and
    // coherence misses.
    for (std::size_t level = 0; level < levelHits.size(); ++level) {
      EXPECT_GT(levelHits[level], 0u) << "level " << level;
    }
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(coherenceMisses, 0u);
  }
}

}  // namespace
}  // namespace occm::cache
