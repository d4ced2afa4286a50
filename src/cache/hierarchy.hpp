#pragma once

// Multi-level cache hierarchy for one simulated machine.
//
// Instances are laid out per the topology's sharing scopes (private L1/L2
// per physical core, LLC per socket or die). The hierarchy is
// non-inclusive: a fill inserts the line at every level on the core's
// path; evictions are local to a level. Dirty evictions from the LLC are
// reported to the caller as writeback traffic for the memory system;
// dirty evictions from inner levels mark the line dirty in the next level
// when present (and are otherwise dropped — we track timing and traffic,
// not data).
//
// Shared-area addresses additionally consult the MESI-lite directory;
// a remote write invalidates this core's copies so its next access misses
// (coherence miss), which the caller treats like an off-chip request.
//
// An access probes each level on the core's path exactly once
// (SetAssocCache::probe, DESIGN.md §14): the probe answers the
// invalidation drop, the hit-or-miss lookup and the fill of that level.

#include <bit>
#include <memory>
#include <vector>

#include "cache/coherence.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/types.hpp"
#include "topology/topology_map.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {

/// Outcome of one hierarchy access.
struct AccessResult {
  /// Level that hit (1-based); 0 when the access missed every level.
  int hitLevel = 0;
  /// Lookup latency in cycles (hit latencies along the search path). The
  /// memory system adds DRAM/queueing latency for misses.
  Cycles latency = 0;
  /// True when the access must go off-chip (LLC miss or coherence miss).
  bool offChip = false;
  /// True when the miss was caused by a remote write invalidation.
  bool coherenceMiss = false;
  /// Dirty line evicted from the LLC by the fill, if any.
  bool writeback = false;
  Addr writebackLine = 0;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const topology::TopologyMap& topo);

  /// Performs a full access (lookup + fill on miss + coherence) by `core`.
  /// Defined inline below the class: this is the simulator's single
  /// hottest function and inlining it into the issue loop removes a call
  /// boundary the optimizer cannot see across (DESIGN.md §14).
  AccessResult access(CoreId core, Addr addr, bool write);

  /// Statistics of a level instance (level is 1-based).
  [[nodiscard]] const CacheStats& stats(int level, int instance) const;

  /// Sum of misses at the machine's last level across all instances — the
  /// PAPI LLC_MISSES analogue. Coherence misses are included (the line was
  /// invalidated, so the LLC lookup misses), exactly as hardware counters
  /// behave; this is what makes EP's miss count grow with active cores.
  [[nodiscard]] std::uint64_t llcMisses() const;

  [[nodiscard]] const CoherenceStats& coherenceStats() const noexcept {
    return directory_.stats();
  }

  [[nodiscard]] int levels() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] Bytes lineSize() const noexcept { return lineSize_; }

  /// Drops all cached lines and directory state (not the counters).
  void flush();

 private:
  struct Level {
    topology::CacheLevelSpec spec;
    std::vector<SetAssocCache> instances;
  };

  const topology::TopologyMap& topo_;
  std::vector<Level> levels_;
  CoherenceDirectory directory_;
  Bytes lineSize_;
  /// Each core's cache instances, [core * levels + levelIdx] — one load
  /// per level on the access path instead of an index table plus an
  /// instance-vector dereference. Two cores share a level's instance iff
  /// their pointers here are equal, which is how the invalidation walks
  /// decide "not shared with the writer". Stable: the instance vectors
  /// are sized once in the constructor and never reallocated.
  std::vector<SetAssocCache*> corePath_;
  /// Per-level hit latency, contiguous (mirrors levels_[l].spec.hitLatency).
  std::vector<Cycles> hitLatency_;
  /// One probe per level, reused by each access: the walk's lookup of a
  /// level is also where its fill goes.
  std::vector<SetAssocCache::Probe> probes_;

  /// Cost of a write-upgrade broadcast (invalidating remote sharers).
  static constexpr Cycles kUpgradeCycles = 24;
};

inline AccessResult CacheHierarchy::access(CoreId core, Addr addr,
                                           bool write) {
  AccessResult result;
  const Addr line = addr & ~(lineSize_ - 1);
  const bool shared = trace::AddressSpace::isShared(addr);
  const std::size_t nLevels = levels_.size();
  SetAssocCache* const* path =
      &corePath_[static_cast<std::size_t>(core) * nLevels];

  // beginAccess folds the presence and owner probes into ONE table lookup
  // and hands back the entry so the post-fill update (commitAccess) needs
  // no second probe. It reports a core in exactly the cases the old
  // isInvalidatedFor + ownerOf pair reported invalidation. Creating the
  // entry before the cache walk instead of after is unobservable: nothing
  // between here and commitAccess touches the directory.
  CoherenceDirectory::AccessHandle handle;
  if (shared) {
    handle = directory_.beginAccess(line, core);
  }
  const CoreId owner = handle.invalidatingOwner;
  const bool invalidated = owner >= 0;
  // A remote write since our last access invalidated our copies — but
  // only in cache instances we do *not* share with the writing owner (a
  // shared LLC still holds the writer's copy). Dropping exactly those
  // copies makes within-socket false sharing a cheap LLC hit and
  // cross-socket false sharing a full off-chip miss, as on real
  // invalidation-based hardware. With no such owner the owner's path is
  // our own, so no level differs and nothing is dropped.
  SetAssocCache* const* ownerPath =
      invalidated ? &corePath_[static_cast<std::size_t>(owner) * nLevels]
                  : path;

  // Search the hierarchy top-down, probing each level once: drop the copy
  // a remote write invalidated, then hit or count a miss on that probe.
  SetAssocCache::Probe* probes = probes_.data();
  std::size_t hitIdx = nLevels;
  for (std::size_t l = 0; l < nLevels; ++l) {
    probes[l] = path[l]->probe(addr);
    if (path[l] != ownerPath[l]) {
      path[l]->invalidate(probes[l]);
    }
    result.latency += hitLatency_[l];
    if (path[l]->lookup(probes[l], write)) {
      result.hitLevel = static_cast<int>(l) + 1;
      hitIdx = l;
      break;
    }
  }

  if (result.hitLevel == 0) {
    result.offChip = true;
    result.coherenceMiss = invalidated;
  } else {
    // Levels past the hit were not walked; drop their invalidated copies
    // too. Sharing only widens outwards, so with the hit level shared
    // with the owner no preset reaches this, but the invalidation is
    // owed all the same.
    for (std::size_t l = hitIdx + 1; l < nLevels; ++l) {
      if (path[l] != ownerPath[l]) {
        path[l]->invalidate(line);
      }
    }
  }

  // Fill (on a full miss) or promote (on an outer-level hit) the line
  // into the levels above the hit on this core's path, from the walk's
  // probes: each missed there, and nothing since has filled the line.
  for (std::size_t l = 0; l < hitIdx; ++l) {
    auto evicted = path[l]->fill(probes[l], write);
    if (!evicted.has_value() || !evicted->dirty) {
      continue;
    }
    if (l + 1 < nLevels) {
      // Dirty inner-level eviction: absorb into the next level if the
      // line is present there (non-inclusive hierarchy; see header).
      path[l + 1]->markDirty(evicted->lineAddr);
    } else {
      result.writeback = true;
      result.writebackLine = evicted->lineAddr;
    }
  }

  if (shared) {
    std::uint64_t victims = directory_.commitAccess(handle, core, write);
    if (victims != 0) {
      result.latency += kUpgradeCycles;
      // Walk victim cores in ascending order (the order the vector API
      // produced) straight off the sharer bitmask — no allocation.
      do {
        const CoreId victim = std::countr_zero(victims);
        victims &= victims - 1;
        // Invalidate the victim's copies at every level whose instance is
        // not shared with the writer (a shared LLC keeps the line).
        SetAssocCache* const* victimPath =
            &corePath_[static_cast<std::size_t>(victim) * nLevels];
        for (std::size_t l = 0; l < nLevels; ++l) {
          if (victimPath[l] != path[l]) {
            victimPath[l]->invalidate(line);
          }
        }
      } while (victims != 0);
    }
  }

  return result;
}

}  // namespace occm::cache
