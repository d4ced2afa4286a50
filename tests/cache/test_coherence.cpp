#include "cache/coherence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "support/cache_reference.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {
namespace {

TEST(CoherenceDirectory, ReadersAccumulateAsSharers) {
  CoherenceDirectory dir(4);
  EXPECT_TRUE(dir.onAccess(0, 0, false).empty());
  EXPECT_TRUE(dir.onAccess(0, 1, false).empty());
  EXPECT_TRUE(dir.onAccess(0, 2, false).empty());
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 2));
  EXPECT_EQ(dir.stats().upgrades, 0u);
}

TEST(CoherenceDirectory, WriteInvalidatesOtherSharers) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 1, false);
  const auto victims = dir.onAccess(0, 2, true);
  EXPECT_EQ(victims, (std::vector<CoreId>{0, 1}));
  EXPECT_TRUE(dir.isInvalidatedFor(0, 0));
  EXPECT_TRUE(dir.isInvalidatedFor(0, 1));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 2));
  EXPECT_EQ(dir.ownerOf(0), 2);
  EXPECT_EQ(dir.stats().upgrades, 1u);
  EXPECT_EQ(dir.stats().invalidationsSent, 2u);
}

TEST(CoherenceDirectory, WriteWithNoOtherSharerIsSilent) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 1, true);
  EXPECT_TRUE(dir.onAccess(0, 1, true).empty());
  EXPECT_EQ(dir.stats().upgrades, 0u);
}

TEST(CoherenceDirectory, ReadAfterRemoteWriteIsCoherenceMiss) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(0, 1, false);
  EXPECT_EQ(dir.stats().coherenceMisses, 1u);
  // Re-reading by the owner is not a coherence miss.
  (void)dir.onAccess(0, 0, false);
  EXPECT_EQ(dir.stats().coherenceMisses, 1u);
}

TEST(CoherenceDirectory, UntrackedLineIsNotInvalidated) {
  CoherenceDirectory dir(2);
  EXPECT_FALSE(dir.isInvalidatedFor(123, 0));
  EXPECT_EQ(dir.ownerOf(123), -1);
}

TEST(CoherenceDirectory, AlternatingWritersPingPong) {
  CoherenceDirectory dir(2);
  std::size_t invalidations = 0;
  (void)dir.onAccess(0, 0, true);
  for (int i = 0; i < 10; ++i) {
    invalidations += dir.onAccess(0, i % 2 == 0 ? 1 : 0, true).size();
  }
  EXPECT_EQ(invalidations, 10u);
}

TEST(CoherenceDirectory, EvictionDropsSharerAndCleansUp) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 1, false);
  EXPECT_EQ(dir.trackedLines(), 1u);
  dir.onEviction(0, 0);
  // Core 0 is no longer a sharer, so a write by core 1 invalidates no one.
  EXPECT_TRUE(dir.onAccess(0, 1, true).empty());
  dir.onEviction(0, 1);
  EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(CoherenceDirectory, DistinctLinesIndependent) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(64, 1, true);
  EXPECT_FALSE(dir.isInvalidatedFor(64, 1));
  // Core 0 holds no copy of the written line 64, so its copies count as
  // invalid until it re-reads (the refetch is handled by the hierarchy).
  EXPECT_TRUE(dir.isInvalidatedFor(64, 0));
  (void)dir.onAccess(64, 0, false);
  EXPECT_FALSE(dir.isInvalidatedFor(64, 0));
}

TEST(CoherenceDirectory, ReadSharedLinesNeverInvalidate) {
  // No write ever happens: any number of readers coexist and none is
  // considered invalidated (read-only data such as CG's iterate vector).
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 3, false);
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 1));  // cold, but nothing modified
  EXPECT_FALSE(dir.isInvalidatedFor(0, 3));
  EXPECT_EQ(dir.ownerOf(0), -1);
}

TEST(CoherenceDirectory, SupportsUpTo64Cores) {
  EXPECT_NO_THROW(CoherenceDirectory(64));
  EXPECT_THROW((void)CoherenceDirectory(65), ContractViolation);
  EXPECT_THROW((void)CoherenceDirectory(0), ContractViolation);
}

TEST(CoherenceDirectory, ClearResetsEverything) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(0, 1, true);
  dir.clear();
  EXPECT_EQ(dir.trackedLines(), 0u);
  EXPECT_EQ(dir.stats().upgrades, 0u);
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
}

TEST(CoherenceDirectory, DropLinesKeepsCounters) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 1, true);
  dir.dropLines();
  EXPECT_EQ(dir.trackedLines(), 0u);
  EXPECT_EQ(dir.ownerOf(0), -1);
  EXPECT_EQ(dir.stats().upgrades, 1u);
  EXPECT_EQ(dir.stats().invalidationsSent, 1u);
}

TEST(CoherenceDirectory, RejectsPrivateAreaLines) {
  CoherenceDirectory dir(2);
  EXPECT_THROW((void)dir.onAccess(trace::AddressSpace::kPrivateBase, 0, false),
               ContractViolation);
  EXPECT_THROW((void)CoherenceDirectory(2, 48), ContractViolation);
}

TEST(CoherenceDirectory, MatchesReferenceModel) {
  constexpr Addr kLine = 64;
  constexpr Addr kPage = 4096;  // directory entries per page
  // Three line pools: a hot set straddling the page-0/1 boundary (heavy
  // sharing), a dense range over pages 0..3, and sparse lines past page
  // 256 whose pages sit far beyond the dense ones.
  std::vector<Addr> hot;
  for (Addr n = kPage - 32; n < kPage + 32; ++n) {
    hot.push_back(n * kLine);
  }
  std::vector<Addr> sparse;
  for (Addr i = 0; i < 256; ++i) {
    sparse.push_back((256 * kPage + i * 5003) * kLine);
  }

  for (const int cores : {1, 48, 64}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    CoherenceDirectory dir(cores);
    ReferenceDirectory ref;
    std::mt19937_64 rng(0xC0FFEEu + static_cast<unsigned>(cores));
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    Addr previous = 0;

    for (int step = 0; step < 120'000; ++step) {
      const std::uint64_t pool = pick(10);
      Addr line = 0;
      if (pool < 5) {
        line = hot[pick(hot.size())];
      } else if (pool < 8) {
        line = pick(3 * kPage + 100) * kLine;
      } else {
        line = sparse[pick(sparse.size())];
      }
      const auto core = static_cast<CoreId>(pick(static_cast<unsigned>(cores)));
      std::uint64_t op = pick(20);
      if (step == 60'000) {
        // Mid-run flush: every line is untracked, the counters carry on;
        // then re-read the previous step's line, whose page was the last
        // one touched.
        dir.dropLines();
        ref.dropLines();
        line = previous;
        op = 4;
      }
      previous = line;

      if (op < 4) {
        dir.onEviction(line, core);
        ref.evict(line, core);
      } else {
        const bool write = op >= 11;
        const CoreId wantOwner = ref.invalidatingOwner(line, core);
        ASSERT_EQ(dir.invalidatingOwner(line, core), wantOwner)
            << "step " << step;
        const auto handle = dir.beginAccess(line, core);
        ASSERT_EQ(handle.invalidatingOwner, wantOwner) << "step " << step;
        ASSERT_EQ(dir.commitAccess(handle, core, write),
                  ref.access(line, core, write))
            << "step " << step;
      }
      ASSERT_EQ(dir.trackedLines(), ref.size()) << "step " << step;
      ASSERT_EQ(dir.ownerOf(line), ref.ownerOf(line)) << "step " << step;
    }

    expectSameStats(ref.stats, dir.stats());
    if (cores > 1) {
      // The mix must actually exercise invalidations and coherence misses.
      EXPECT_GT(ref.stats.upgrades, 1000u);
      EXPECT_GT(ref.stats.coherenceMisses, 1000u);
    }
    for (const auto& [line, state] : ref.lines()) {
      for (CoreId core = 0; core < cores; ++core) {
        ASSERT_EQ(dir.isInvalidatedFor(line, core),
                  ref.invalidatingOwner(line, core) >= 0);
      }
    }
  }
}

}  // namespace
}  // namespace occm::cache
