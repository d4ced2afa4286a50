#include "cache/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace occm::cache {
namespace {

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache cache(1024, 64, 2);
  EXPECT_FALSE(cache.access(0, false));
  EXPECT_TRUE(cache.insert(0, false) == std::nullopt);
  EXPECT_TRUE(cache.access(0, false));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SetAssocCache, SameLineDifferentOffsetsHit) {
  SetAssocCache cache(1024, 64, 2);
  (void)cache.insert(128, false);
  EXPECT_TRUE(cache.access(128 + 63, false));
  EXPECT_FALSE(cache.contains(192));
}

TEST(SetAssocCache, LruEvictionOrder) {
  // Direct construct a tiny fully-associative-in-one-set shape by filling
  // one set: use a cache with 1 set (size = ways * line).
  SetAssocCache cache(2 * 64, 64, 2);
  ASSERT_EQ(cache.sets(), 1u);
  (void)cache.insert(0 * 64, false);
  (void)cache.insert(1 * 64, false);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(cache.access(0, false));
  const auto evicted = cache.insert(2 * 64, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 64u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(64));
}

TEST(SetAssocCache, DirtyEvictionReported) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)cache.insert(0, /*write=*/true);
  (void)cache.insert(64, false);
  const auto evicted = cache.insert(128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 0u);
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(SetAssocCache, WriteHitMarksDirty) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)cache.insert(0, false);
  EXPECT_TRUE(cache.access(0, /*write=*/true));
  (void)cache.insert(64, false);
  const auto evicted = cache.insert(128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->dirty);
}

TEST(SetAssocCache, InsertExistingRefreshesInsteadOfEvicting) {
  SetAssocCache cache(2 * 64, 64, 2);
  (void)cache.insert(0, false);
  (void)cache.insert(64, false);
  EXPECT_EQ(cache.insert(0, true), std::nullopt);  // refresh, now dirty+MRU
  const auto evicted = cache.insert(128, false);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lineAddr, 64u);
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  SetAssocCache cache(1024, 64, 2);
  (void)cache.insert(0, true);
  const auto result = cache.invalidate(0);
  EXPECT_TRUE(result.wasPresent);
  EXPECT_TRUE(result.wasDirty);
  EXPECT_FALSE(cache.contains(0));
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
  (void)cache.insert(0, false);
  EXPECT_TRUE(cache.markDirty(0));
  (void)cache.insert(64, false);
  // Evict everything in set of line 0 to observe dirtiness... simpler:
  const auto result = cache.invalidate(0);
  EXPECT_TRUE(result.wasDirty);
}

TEST(SetAssocCache, FlushDropsEverything) {
  SetAssocCache cache(1024, 64, 2);
  (void)cache.insert(0, true);
  (void)cache.insert(64, false);
  cache.flush();
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(64));
}

TEST(SetAssocCache, WorkingSetLargerThanCacheMisses) {
  SetAssocCache cache(8 * kKiB, 64, 4);
  // Touch 64 KiB twice: second pass still mostly misses (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < 64 * kKiB; a += 64) {
      if (!cache.access(a, false)) {
        (void)cache.insert(a, false);
      }
    }
  }
  EXPECT_GT(cache.stats().missRatio(), 0.9);
}

TEST(SetAssocCache, WorkingSetSmallerThanCacheHits) {
  SetAssocCache cache(8 * kKiB, 64, 4);
  for (int pass = 0; pass < 10; ++pass) {
    for (Addr a = 0; a < 4 * kKiB; a += 64) {
      if (!cache.access(a, false)) {
        (void)cache.insert(a, false);
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
    if (!cache.access(a, false)) {
      (void)cache.insert(a, false);
    }
  }
  for (Addr a = 0; a < 128 * kKiB; a += 64) {
    EXPECT_TRUE(cache.access(a, false)) << a;
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

/// The oracle: each set is a std::list of its lines, most recent first,
/// and a line's dirty bit travels with it. Its set hash is the cache's
/// documented xor-fold, `(line ^ (line >> 13)) % sets`.
class MruListCache {
 public:
  MruListCache(std::size_t sets, std::uint32_t ways)
      : sets_(sets), ways_(ways), lists_(sets) {}

  bool access(Addr addr, bool write) {
    ++stats_.accesses;
    auto& set = setOf(addr);
    const auto it = find(set, addr);
    if (it == set.end()) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    touch(set, it, write);
    return true;
  }

  [[nodiscard]] bool contains(Addr addr) {
    auto& set = setOf(addr);
    return find(set, addr) != set.end();
  }

  std::optional<Eviction> insert(Addr addr, bool write) {
    auto& set = setOf(addr);
    const auto it = find(set, addr);
    if (it != set.end()) {
      touch(set, it, write);
      return std::nullopt;
    }
    std::optional<Eviction> evicted;
    if (set.size() == ways_) {
      evicted = Eviction{set.back().line * kLine, set.back().dirty};
      ++stats_.evictions;
      if (set.back().dirty) {
        ++stats_.dirtyEvictions;
      }
      set.pop_back();
    }
    set.push_front({addr / kLine, write});
    return evicted;
  }

  bool markDirty(Addr addr) {
    auto& set = setOf(addr);
    const auto it = find(set, addr);
    if (it == set.end()) {
      return false;
    }
    it->dirty = true;
    return true;
  }

  SetAssocCache::InvalidateResult invalidate(Addr addr) {
    auto& set = setOf(addr);
    const auto it = find(set, addr);
    if (it == set.end()) {
      return {};
    }
    const SetAssocCache::InvalidateResult result{true, it->dirty};
    set.erase(it);
    ++stats_.invalidations;
    return result;
  }

  void flush() {
    for (auto& set : lists_) {
      set.clear();
    }
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  static constexpr Addr kLine = 64;

 private:
  struct Line {
    Addr line = 0;
    bool dirty = false;
  };
  using Set = std::list<Line>;

  Set& setOf(Addr addr) {
    const Addr line = addr / kLine;
    return lists_[static_cast<std::size_t>((line ^ (line >> 13)) % sets_)];
  }
  static Set::iterator find(Set& set, Addr addr) {
    return std::find_if(set.begin(), set.end(), [&](const Line& l) {
      return l.line == addr / kLine;
    });
  }
  static void touch(Set& set, Set::iterator it, bool write) {
    it->dirty = it->dirty || write;
    set.splice(set.begin(), set, it);
  }

  std::size_t sets_;
  std::uint32_t ways_;
  std::vector<Set> lists_;
  CacheStats stats_;
};

void expectSameStats(const CacheStats& want, const CacheStats& got,
                     const std::string& context) {
  EXPECT_EQ(want.accesses, got.accesses) << context;
  EXPECT_EQ(want.hits, got.hits) << context;
  EXPECT_EQ(want.misses, got.misses) << context;
  EXPECT_EQ(want.evictions, got.evictions) << context;
  EXPECT_EQ(want.dirtyEvictions, got.dirtyEvictions) << context;
  EXPECT_EQ(want.invalidations, got.invalidations) << context;
}

// Random access/insert/insertAbsent/markDirty/invalidate/flush sequences
// against the MRU-list oracle, at every associativity the presets use
// and on one-set, odd and larger set counts. The address universe is
// about twice the capacity, so sets fill, evict and refill; every hit,
// eviction (victim and dirty bit), invalidation result and CacheStats
// field must match after every step.
TEST(SetAssocCache, MatchesMruListOracle) {
  Rng rng(0x5E7A55);
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::size_t sets : {std::size_t{1}, std::size_t{3},
                                   std::size_t{16}}) {
      const Addr line = MruListCache::kLine;
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
          ASSERT_EQ(oracle.access(addr, write), cache.access(addr, write))
              << at;
        } else if (op < 78) {
          const bool absent = !oracle.contains(addr);
          const std::optional<Eviction> want = oracle.insert(addr, write);
          const std::optional<Eviction> got =
              absent && op < 62 ? cache.insertAbsent(addr, write)
                                : cache.insert(addr, write);
          ASSERT_EQ(want.has_value(), got.has_value()) << at;
          if (want.has_value()) {
            EXPECT_EQ(want->lineAddr, got->lineAddr) << at;
            EXPECT_EQ(want->dirty, got->dirty) << at;
          }
        } else if (op < 87) {
          ASSERT_EQ(oracle.markDirty(addr), cache.markDirty(addr)) << at;
        } else if (op < 99) {
          const auto want = oracle.invalidate(addr);
          const auto got = cache.invalidate(addr);
          ASSERT_EQ(want.wasPresent, got.wasPresent) << at;
          EXPECT_EQ(want.wasDirty, got.wasDirty) << at;
        } else {
          oracle.flush();
          cache.flush();
        }
        ASSERT_EQ(oracle.contains(addr), cache.contains(addr)) << at;
        expectSameStats(oracle.stats(), cache.stats(), at);
      }
    }
  }
}

}  // namespace
}  // namespace occm::cache
