#include "cache/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/cache_reference.hpp"

namespace occm::cache {
namespace {

// The probe API spelled as the classic operations, for tests that think
// in them. access: a counted lookup. contains: presence, no stats.
// insert: fill when absent, else refresh the line as a hit would.
bool access(SetAssocCache& cache, Addr addr, bool write) {
  return cache.lookup(cache.probe(addr), write);
}

bool contains(const SetAssocCache& cache, Addr addr) {
  return cache.probe(addr).present();
}

std::optional<Eviction> insert(SetAssocCache& cache, Addr addr, bool write) {
  const SetAssocCache::Probe probe = cache.probe(addr);
  if (probe.present()) {
    (void)cache.lookup(probe, write);
    return std::nullopt;
  }
  return cache.fill(probe, write);
}

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache cache(1024, 64, 2);
  EXPECT_FALSE(access(cache, 0, false));
  EXPECT_TRUE(insert(cache, 0, false) == std::nullopt);
  EXPECT_TRUE(access(cache, 0, false));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SetAssocCache, SameLineDifferentOffsetsHit) {
  SetAssocCache cache(1024, 64, 2);
  (void)insert(cache, 128, false);
  EXPECT_TRUE(access(cache, 128 + 63, false));
  EXPECT_FALSE(contains(cache, 192));
}

TEST(SetAssocCache, LruEvictionOrder) {
  // Direct construct a tiny fully-associative-in-one-set shape by filling
  // one set: use a cache with 1 set (size = ways * line).
  SetAssocCache cache(2 * 64, 64, 2);
  ASSERT_EQ(cache.sets(), 1u);
  (void)insert(cache, 0 * 64, false);
  (void)insert(cache, 1 * 64, false);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(access(cache, 0, false));
  const auto evicted = insert(cache, 2 * 64, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 64u);
  EXPECT_TRUE(contains(cache, 0));
  EXPECT_FALSE(contains(cache, 64));
}

TEST(SetAssocCache, DirtyEvictionReported) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)insert(cache, 0, /*write=*/true);
  (void)insert(cache, 64, false);
  const auto evicted = insert(cache, 128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 0u);
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(SetAssocCache, WriteHitMarksDirty) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)insert(cache, 0, false);
  EXPECT_TRUE(access(cache, 0, /*write=*/true));
  (void)insert(cache, 64, false);
  const auto evicted = insert(cache, 128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->dirty);
}

TEST(SetAssocCache, InsertExistingRefreshesInsteadOfEvicting) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)insert(cache, 0, false);
  (void)insert(cache, 64, false);
  EXPECT_EQ(insert(cache, 0, true), std::nullopt);  // refresh, now dirty+MRU
  const auto evicted = insert(cache, 128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 64u);
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  SetAssocCache cache(1024, 64, 2);
  (void)insert(cache, 0, true);
  const auto result = cache.invalidate(0);
  EXPECT_TRUE(result.wasPresent);
  EXPECT_TRUE(result.wasDirty);
  EXPECT_FALSE(contains(cache, 0));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(SetAssocCache, InvalidateAbsentIsNoop) {
  SetAssocCache cache(1024, 64, 2);
  const auto result = cache.invalidate(0);
  EXPECT_FALSE(result.wasPresent);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(SetAssocCache, MarkDirtyOnlyWhenPresent) {
  SetAssocCache cache(1024, 64, 2);
  EXPECT_FALSE(cache.markDirty(0));
  (void)insert(cache, 0, false);
  EXPECT_TRUE(cache.markDirty(0));
  (void)insert(cache, 64, false);
  // Evict everything in set of line 0 to observe dirtiness... simpler:
  const auto result = cache.invalidate(0);
  EXPECT_TRUE(result.wasDirty);
}

TEST(SetAssocCache, FlushDropsEverything) {
  SetAssocCache cache(1024, 64, 2);
  (void)insert(cache, 0, true);
  (void)insert(cache, 64, false);
  cache.flush();
  EXPECT_FALSE(contains(cache, 0));
  EXPECT_FALSE(contains(cache, 64));
}

TEST(SetAssocCache, WorkingSetLargerThanCacheMisses) {
  SetAssocCache cache(8 * kKiB, 64, 4);
  // Touch 64 KiB twice: second pass still mostly misses (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < 64 * kKiB; a += 64) {
      if (!access(cache, a, false)) {
        (void)insert(cache, a, false);
      }
    }
  }
  EXPECT_GT(cache.stats().missRatio(), 0.9);
}

TEST(SetAssocCache, WorkingSetSmallerThanCacheHits) {
  SetAssocCache cache(8 * kKiB, 64, 4);
  for (int pass = 0; pass < 10; ++pass) {
    for (Addr a = 0; a < 4 * kKiB; a += 64) {
      if (!access(cache, a, false)) {
        (void)insert(cache, a, false);
      }
    }
  }
  // First pass misses, the rest hit: ratio ~ 1/10.
  EXPECT_LT(cache.stats().missRatio(), 0.2);
}

TEST(SetAssocCache, NonPowerOfTwoSetCountWorks) {
  // 384 KiB, 16-way: 384 sets (the Intel NUMA LLC shape).
  SetAssocCache cache(384 * kKiB, 64, 16);
  EXPECT_EQ(cache.sets(), 384u);
  for (Addr a = 0; a < 128 * kKiB; a += 64) {
    if (!access(cache, a, false)) {
      (void)insert(cache, a, false);
    }
  }
  for (Addr a = 0; a < 128 * kKiB; a += 64) {
    EXPECT_TRUE(access(cache, a, false)) << a;
  }
}

TEST(SetAssocCache, InvalidGeometryThrows) {
  EXPECT_THROW((void)SetAssocCache(1000, 64, 2), ContractViolation);  // not multiple
  EXPECT_THROW((void)SetAssocCache(1024, 48, 2), ContractViolation);  // line !pow2
  EXPECT_THROW((void)SetAssocCache(1024, 64, 0), ContractViolation);
  EXPECT_THROW((void)SetAssocCache(64 * 3, 64, 2), ContractViolation);  // 1.5 sets
  EXPECT_THROW((void)SetAssocCache(17 * 64, 64, 17), ContractViolation);
  EXPECT_NO_THROW((void)SetAssocCache(16 * 64, 64, 16));
}

// Random access/insert/markDirty/invalidate/flush sequences, spelled in
// the probe API (invalidation both by address and by probe), against the
// MRU-list oracle, at every associativity the presets use
// and on one-set, odd and larger set counts. The address universe is
// about twice the capacity, so sets fill, evict and refill; every hit,
// eviction (victim and dirty bit), invalidation result and CacheStats
// field must match after every step.
TEST(SetAssocCache, MatchesMruListOracle) {
  Rng rng(0x5E7A55);
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::size_t sets : {std::size_t{1}, std::size_t{3},
                                   std::size_t{16}}) {
      const Addr line = 64;
      SetAssocCache cache(sets * ways * line, line, ways);
      MruListCache oracle(sets, ways);
      const std::uint64_t universe = 2 * sets * ways + 1;
      const std::string shape =
          std::to_string(ways) + "-way x " + std::to_string(sets) + " sets";
      for (int step = 0; step < 8000; ++step) {
        // Spread the lines over the hash's upper bits too.
        const Addr lineNo = (rng.next() % universe) * 0x2001;
        const Addr addr = lineNo * line + rng.next() % line;
        const bool write = (rng.next() & 1) != 0;
        const std::string at = shape + " step " + std::to_string(step);
        const std::uint64_t op = rng.next() % 100;
        if (op < 45) {
          ASSERT_EQ(oracle.access(addr, write), access(cache, addr, write))
              << at;
        } else if (op < 78) {
          const std::optional<Eviction> want = oracle.insert(addr, write);
          const std::optional<Eviction> got = insert(cache, addr, write);
          ASSERT_EQ(want.has_value(), got.has_value()) << at;
          if (want.has_value()) {
            EXPECT_EQ(want->lineAddr, got->lineAddr) << at;
            EXPECT_EQ(want->dirty, got->dirty) << at;
          }
        } else if (op < 87) {
          ASSERT_EQ(oracle.markDirty(addr), cache.markDirty(addr)) << at;
        } else if (op < 99) {
          const auto want = oracle.invalidate(addr);
          SetAssocCache::Probe probe = cache.probe(addr);
          const auto got =
              op < 93 ? cache.invalidate(addr) : cache.invalidate(probe);
          ASSERT_EQ(want.wasPresent, got.wasPresent) << at;
          EXPECT_EQ(want.wasDirty, got.wasDirty) << at;
        } else {
          oracle.flush();
          cache.flush();
        }
        ASSERT_EQ(oracle.contains(addr), contains(cache, addr)) << at;
        expectSameStats(oracle.stats(), cache.stats(), at);
      }
    }
  }
}

/// `count` line numbers from `first` upwards (first included) that share
/// its set under the documented xor-fold and its fingerprint byte.
std::vector<Addr> collidingLines(Addr first, std::size_t sets,
                                 std::size_t count) {
  const auto setOf = [sets](Addr line) {
    return (line ^ (line >> 13)) % sets;
  };
  std::vector<Addr> lines{first};
  for (Addr line = first + 1; lines.size() < count; ++line) {
    if (setOf(line) == setOf(first) &&
        SetAssocCache::fingerprint(line) ==
            SetAssocCache::fingerprint(first)) {
      lines.push_back(line);
    }
  }
  return lines;
}

// Lines that share a set and a fingerprint byte make every way a
// candidate of every probe. At 1, 8 and 16 ways, on one set, on an odd
// set count and on the 384-set LLC shape: each filled collider is found
// in its own way, each other collider is rejected on its full tag, and
// random lookups, fills and drops among the colliders keep presence,
// victims, invalidation results and stats equal to the MRU-list oracle,
// so the fingerprint row stays in step with the tags.
TEST(SetAssocCache, FingerprintCollisionsResolveOnTheFullTag) {
  Rng rng(0xF1A6E5);
  for (const std::uint32_t ways : {1u, 8u, 16u}) {
    for (const std::size_t sets : {std::size_t{1}, std::size_t{3},
                                   std::size_t{384}}) {
      const Addr kLine = 64;
      SetAssocCache cache(sets * ways * kLine, kLine, ways);
      const std::vector<Addr> lines =
          collidingLines(12345, sets, 2 * ways + 1);
      const std::string shape =
          std::to_string(ways) + "-way x " + std::to_string(sets) + " sets";
      const SetAssocCache::Probe first = cache.probe(lines.front() * kLine);
      for (const Addr line : lines) {
        const SetAssocCache::Probe probe = cache.probe(line * kLine);
        ASSERT_EQ(probe.set, first.set) << shape;
        ASSERT_EQ(probe.fingerprint, first.fingerprint) << shape;
        ASSERT_FALSE(probe.present()) << shape;
      }

      for (std::size_t i = 0; i < ways; ++i) {
        const SetAssocCache::Probe probe = cache.probe(lines[i] * kLine);
        EXPECT_FALSE(cache.fill(probe, false).has_value()) << shape;
      }
      std::vector<bool> wayTaken(ways, false);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const SetAssocCache::Probe probe = cache.probe(lines[i] * kLine);
        ASSERT_EQ(probe.present(), i < ways) << shape << " line " << i;
        if (probe.present()) {
          EXPECT_EQ(probe.line, lines[i]) << shape;
          EXPECT_FALSE(wayTaken[probe.way]) << shape << " way " << probe.way;
          wayTaken[probe.way] = true;
        }
      }

      cache.flush();
      MruListCache oracle(sets, ways);
      for (int step = 0; step < 4000; ++step) {
        const Addr addr = lines[rng.next() % lines.size()] * kLine;
        const bool write = (rng.next() & 1) != 0;
        const std::string at = shape + " step " + std::to_string(step);
        SetAssocCache::Probe probe = cache.probe(addr);
        const std::uint64_t op = rng.next() % 3;
        if (op == 0) {
          ASSERT_EQ(oracle.access(addr, write), cache.lookup(probe, write))
              << at;
        } else if (op == 1) {
          if (!probe.present()) {
            const std::optional<Eviction> want = oracle.insert(addr, write);
            const std::optional<Eviction> got = cache.fill(probe, write);
            ASSERT_EQ(want.has_value(), got.has_value()) << at;
            if (want.has_value()) {
              EXPECT_EQ(want->lineAddr, got->lineAddr) << at;
              EXPECT_EQ(want->dirty, got->dirty) << at;
            }
          }
        } else {
          const auto want = oracle.invalidate(addr);
          const auto got = cache.invalidate(probe);
          ASSERT_EQ(want.wasPresent, got.wasPresent) << at;
          EXPECT_EQ(want.wasDirty, got.wasDirty) << at;
          ASSERT_FALSE(probe.present()) << at;
        }
        for (const Addr line : lines) {
          ASSERT_EQ(oracle.contains(line * kLine),
                    contains(cache, line * kLine))
              << at << " line " << line;
        }
        expectSameStats(oracle.stats(), cache.stats(), at);
      }
    }
  }
}

}  // namespace
}  // namespace occm::cache
