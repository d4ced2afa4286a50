#pragma once

// Test support: naive reference models of the cache layer, written for
// obviousness rather than speed, against which the real structures are
// checked step by step.
//   MruListCache        one set-associative cache: each set a std::list
//                       of its lines, most recent first.
//   ReferenceDirectory  the MESI-lite directory rules over a std::map.
//   ReferenceHierarchy  MRU-list caches per instance plus the reference
//                       directory, accessed in the original order:
//                       invalidate the copies a remote write dropped, walk
//                       top-down, fill and sink dirty victims, then
//                       commit the directory and invalidate victims.
// expectSameStats compares the counters field by field (gtest checks, so
// this header is for test sources only).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/coherence.hpp"
#include "cache/hierarchy.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/types.hpp"
#include "topology/topology_map.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {

/// The oracle for one cache: each set is a std::list of its lines, most
/// recent first, and a line's dirty bit travels with it. Its set hash is
/// the cache's documented xor-fold, `(line ^ (line >> 13)) % sets`.
class MruListCache {
 public:
  MruListCache(std::size_t sets, std::uint32_t ways, Addr lineSize = 64)
      : sets_(sets), ways_(ways), lineSize_(lineSize), lists_(sets) {}

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

  /// Inserts the line as MRU, evicting the LRU line of a full set. A line
  /// already present is refreshed as by a hit access.
  std::optional<Eviction> insert(Addr addr, bool write) {
    auto& set = setOf(addr);
    const auto it = find(set, addr);
    if (it != set.end()) {
      ++stats_.accesses;
      ++stats_.hits;
      touch(set, it, write);
      return std::nullopt;
    }
    std::optional<Eviction> evicted;
    if (set.size() == ways_) {
      evicted = Eviction{set.back().line * lineSize_, set.back().dirty};
      ++stats_.evictions;
      if (set.back().dirty) {
        ++stats_.dirtyEvictions;
      }
      set.pop_back();
    }
    set.push_front({addr / lineSize_, write});
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

 private:
  struct Line {
    Addr line = 0;
    bool dirty = false;
  };
  using Set = std::list<Line>;

  Set& setOf(Addr addr) {
    const Addr line = addr / lineSize_;
    return lists_[static_cast<std::size_t>((line ^ (line >> 13)) % sets_)];
  }
  Set::iterator find(Set& set, Addr addr) const {
    return std::find_if(set.begin(), set.end(), [&](const Line& l) {
      return l.line == addr / lineSize_;
    });
  }
  static void touch(Set& set, Set::iterator it, bool write) {
    it->dirty = it->dirty || write;
    set.splice(set.begin(), set, it);
  }

  std::size_t sets_;
  std::uint32_t ways_;
  Addr lineSize_;
  std::vector<Set> lists_;
  CacheStats stats_;
};

inline void expectSameStats(const CacheStats& want, const CacheStats& got,
                            const std::string& context) {
  EXPECT_EQ(want.accesses, got.accesses) << context;
  EXPECT_EQ(want.hits, got.hits) << context;
  EXPECT_EQ(want.misses, got.misses) << context;
  EXPECT_EQ(want.evictions, got.evictions) << context;
  EXPECT_EQ(want.dirtyEvictions, got.dirtyEvictions) << context;
  EXPECT_EQ(want.invalidations, got.invalidations) << context;
}

inline void expectSameStats(const CoherenceStats& want,
                            const CoherenceStats& got,
                            const std::string& context = {}) {
  EXPECT_EQ(want.upgrades, got.upgrades) << context;
  EXPECT_EQ(want.invalidationsSent, got.invalidationsSent) << context;
  EXPECT_EQ(want.coherenceMisses, got.coherenceMisses) << context;
}

/// The directory oracle: the header's MESI-lite rules over a std::map,
/// one entry per tracked line.
struct RefLine {
  std::uint64_t sharers = 0;
  CoreId owner = -1;
  bool modified = false;
};

class ReferenceDirectory {
 public:
  CoreId invalidatingOwner(Addr line, CoreId core) const {
    const auto it = lines_.find(line);
    if (it == lines_.end()) {
      return -1;
    }
    const RefLine& ref = it->second;
    const bool holds = ((ref.sharers >> core) & 1) != 0;
    return ref.owner >= 0 && ref.owner != core && !holds ? ref.owner : -1;
  }

  CoreId ownerOf(Addr line) const {
    const auto it = lines_.find(line);
    return it == lines_.end() ? -1 : it->second.owner;
  }

  std::uint64_t access(Addr line, CoreId core, bool write) {
    RefLine& ref = lines_[line];
    const std::uint64_t bit = std::uint64_t{1} << core;
    if (!write) {
      if (ref.modified && ref.owner != core) {
        ++stats.coherenceMisses;
        ref.modified = false;
      }
      ref.sharers |= bit;
      return 0;
    }
    const std::uint64_t others = ref.sharers & ~bit;
    if (others != 0) {
      ++stats.upgrades;
      stats.invalidationsSent += static_cast<std::uint64_t>(
          std::popcount(others));
    }
    ref = RefLine{bit, core, true};
    return others;
  }

  void evict(Addr line, CoreId core) {
    const auto it = lines_.find(line);
    if (it == lines_.end()) {
      return;
    }
    it->second.sharers &= ~(std::uint64_t{1} << core);
    if (it->second.sharers == 0) {
      lines_.erase(it);
    }
  }

  void dropLines() { lines_.clear(); }

  std::size_t size() const { return lines_.size(); }
  const std::map<Addr, RefLine>& lines() const { return lines_; }

  CoherenceStats stats;

 private:
  std::map<Addr, RefLine> lines_;
};

/// The hierarchy oracle: one MruListCache per cache instance of the
/// topology and a ReferenceDirectory, stepped in the original order.
class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const topology::TopologyMap& topo)
      : topo_(topo), lineSize_(topo.spec().caches.front().lineSize) {
    for (const auto& spec : topo.spec().caches) {
      std::vector<MruListCache> instances;
      const std::size_t sets =
          static_cast<std::size_t>(spec.size / spec.lineSize /
                                   spec.associativity);
      for (int i = 0; i < topo.cacheInstanceCount(spec); ++i) {
        instances.emplace_back(sets, spec.associativity, spec.lineSize);
      }
      levels_.push_back(std::move(instances));
    }
  }

  AccessResult access(CoreId core, Addr addr, bool write) {
    AccessResult result;
    const Addr line = addr & ~(lineSize_ - 1);
    const bool shared = trace::AddressSpace::isShared(addr);
    const std::size_t nLevels = levels_.size();
    const CoreId owner =
        shared ? directory_.invalidatingOwner(line, core) : CoreId{-1};
    if (owner >= 0) {
      for (std::size_t l = 0; l < nLevels; ++l) {
        if (instance(core, l) != instance(owner, l)) {
          cache(core, l).invalidate(line);
        }
      }
    }
    std::size_t hitIdx = nLevels;
    for (std::size_t l = 0; l < nLevels; ++l) {
      result.latency += topo_.spec().caches[l].hitLatency;
      if (cache(core, l).access(addr, write)) {
        result.hitLevel = static_cast<int>(l) + 1;
        hitIdx = l;
        break;
      }
    }
    if (result.hitLevel == 0) {
      result.offChip = true;
      result.coherenceMiss = owner >= 0;
    }
    for (std::size_t l = 0; l < hitIdx; ++l) {
      const auto evicted = cache(core, l).insert(addr, write);
      if (!evicted.has_value() || !evicted->dirty) {
        continue;
      }
      if (l + 1 < nLevels) {
        cache(core, l + 1).markDirty(evicted->lineAddr);
      } else {
        result.writeback = true;
        result.writebackLine = evicted->lineAddr;
      }
    }
    if (shared) {
      std::uint64_t victims = directory_.access(line, core, write);
      if (victims != 0) {
        result.latency += kUpgradeCycles;
        for (; victims != 0; victims &= victims - 1) {
          const CoreId victim = std::countr_zero(victims);
          for (std::size_t l = 0; l < nLevels; ++l) {
            if (instance(victim, l) != instance(core, l)) {
              cache(victim, l).invalidate(line);
            }
          }
        }
      }
    }
    return result;
  }

  /// Statistics of a level instance (level is 1-based).
  [[nodiscard]] const CacheStats& stats(int level, int inst) const {
    return levels_[static_cast<std::size_t>(level - 1)]
                  [static_cast<std::size_t>(inst)]
                      .stats();
  }
  [[nodiscard]] const CoherenceStats& coherenceStats() const {
    return directory_.stats;
  }

  /// The upgrade broadcast's cost, as the hierarchy charges it.
  static constexpr Cycles kUpgradeCycles = 24;

 private:
  [[nodiscard]] int instance(CoreId core, std::size_t level) const {
    return topo_.cacheInstance(core, topo_.spec().caches[level]);
  }
  MruListCache& cache(CoreId core, std::size_t level) {
    return levels_[level][static_cast<std::size_t>(instance(core, level))];
  }

  const topology::TopologyMap& topo_;
  Bytes lineSize_;
  std::vector<std::vector<MruListCache>> levels_;
  ReferenceDirectory directory_;
};

}  // namespace occm::cache
