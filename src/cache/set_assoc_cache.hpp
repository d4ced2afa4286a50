#pragma once

// A single set-associative, write-back, LRU cache instance operating on
// line addresses. Purely a tag store: no data values are tracked, only
// presence, dirtiness and recency — all the simulator needs for timing
// and traffic.
//
// Layout (DESIGN.md §14): struct-of-arrays with *fixed tag slots* and a
// per-set recency word. Tags live in one flat cache-line-aligned
// std::uint64_t array, one slot per way, and never move. The set's
// recency order is one std::uint64_t: nibble k holds the way at rank k
// (0 = MRU, ways-1 = LRU), so at most 16 ways. Every recency update is
// constant-time word arithmetic:
//   victim      (order >> 4*(ways-1)) & 15 — no search;
//   fill        ((order << 4) & full) | victim;
//   hit         a SWAR nibble-equality finds the way's rank, then two
//               masks move that nibble to the front;
//   invalidate  the way's nibble moves to the back.
// Dirty bits are a per-set bitmask with fixed way positions. The word is
// the permutation an MRU list of the set's lines spells out, so hit/miss
// decisions, LRU victims and every stat match that list exactly (pinned
// by the golden corpus and an MRU-list oracle test): invalid ways always
// occupy the highest ranks (they start there, are never hit, fills
// consume the last rank first and invalidation sends a way to the back),
// hence the rank ways-1 victim is an empty way exactly when the set is
// not yet full.
//
// Line math is a shift (line sizes are powers of two) and the set mapping
// uses a precomputed FastDiv reciprocal — set counts need not be powers
// of two (e.g. a 384-set LLC), and a hardware divide on every access was
// the simulator's single hottest instruction.

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/fastdiv.hpp"
#include "common/types.hpp"

namespace occm::cache {

/// Aggregate counters for one cache instance.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirtyEvictions = 0;
  std::uint64_t invalidations = 0;

  [[nodiscard]] double missRatio() const noexcept {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) /
                                     static_cast<double>(accesses);
  }
};

/// Result of inserting a line: the victim, if a valid line was evicted.
struct Eviction {
  Addr lineAddr = 0;
  bool dirty = false;
};

class SetAssocCache {
 public:
  /// `size` bytes, `lineSize` bytes per line, `ways` associativity
  /// (at most 16 ways: one nibble of the recency word each).
  SetAssocCache(Bytes size, Bytes lineSize, std::uint32_t ways);

  // The per-access methods are defined inline below the class: they run
  // tens of millions of times per simulated second and the hierarchy's
  // access loop is their only hot caller, so cross-TU call overhead was
  // measurable (DESIGN.md §14).

  /// Looks up a byte address. On hit, updates recency (and dirtiness for
  /// writes) and returns true. On miss returns false and counts a miss;
  /// the caller decides whether to insert().
  bool access(Addr addr, bool write);

  /// True when the line holding `addr` is present (no stats, no recency).
  [[nodiscard]] bool contains(Addr addr) const;

  /// Inserts the line for `addr` (as dirty when `write`), evicting the LRU
  /// way if the set is full. Returns the eviction, if any.
  std::optional<Eviction> insert(Addr addr, bool write);

  /// insert() for callers that know the line is absent (the hierarchy's
  /// fill loop: the lookup walk just missed at this level and nothing
  /// since could have filled it). Skips the presence rescan.
  std::optional<Eviction> insertAbsent(Addr addr, bool write);

  /// Marks the line dirty when present, without touching stats or recency
  /// (used to sink dirty evictions from an inner level). Returns presence.
  bool markDirty(Addr addr);

  /// Removes the line if present; returns whether it was present and dirty.
  struct InvalidateResult {
    bool wasPresent = false;
    bool wasDirty = false;
  };
  InvalidateResult invalidate(Addr addr);

  /// Drops every line (e.g. between independent simulation runs).
  void flush();

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Bytes lineSize() const noexcept { return lineSize_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }

 private:
  /// Invalid-way sentinel: no real line address reaches 2^64 - 1 (the
  /// private window tops out near 2^41 — trace/address_space.hpp), so
  /// "valid && tag == line" collapses to one compare.
  static constexpr Addr kNoLine = ~Addr{0};

  /// A 1 in every nibble: way * kNibbles repeats `way` in each nibble.
  static constexpr std::uint64_t kNibbles = 0x1111111111111111ULL;

  [[nodiscard]] std::size_t setIndex(Addr lineAddr) const noexcept {
    // Mix the upper bits so power-of-two strides don't all land in one set
    // pathologically more than on real hardware (simple xor-fold hash).
    // Set counts need not be powers of two (e.g. a 384-set 16-way LLC).
    const Addr mixed = lineAddr ^ (lineAddr >> 13);
    return static_cast<std::size_t>(setDiv_.modulo(mixed));
  }

  /// Tags of a set, fixed slot per way.
  [[nodiscard]] Addr* setBase(std::size_t set) noexcept {
    return &tags_[set * ways_];
  }
  [[nodiscard]] const Addr* setBase(std::size_t set) const noexcept {
    return &tags_[set * ways_];
  }
  /// Rank of `way` in a recency word: the lowest nibble of
  /// order ^ (way * kNibbles) that is zero. The real nibbles are a
  /// permutation of the ways, so exactly one of them matches, and the
  /// zero padding above them (which matches way 0) is never reached first.
  [[nodiscard]] static unsigned findRank(std::uint64_t order,
                                         std::uint32_t way) noexcept {
    std::uint64_t x = order ^ (way * kNibbles);
    x |= x >> 1;
    x |= x >> 2;  // bit 0 of each nibble: OR of that nibble's four bits
    return static_cast<unsigned>(std::countr_zero(~x & kNibbles)) >> 2;
  }

  /// The recency word with the way at `rank` moved to rank 0: the ranks
  /// below it age by one, the ones above keep their place.
  [[nodiscard]] static std::uint64_t toFront(std::uint64_t order,
                                             unsigned rank) noexcept {
    const std::uint64_t newer = (std::uint64_t{1} << (4 * rank)) - 1;
    const std::uint64_t self = std::uint64_t{15} << (4 * rank);
    return (order & ~(newer | self)) | ((order & newer) << 4) |
           ((order & self) >> (4 * rank));
  }

  Bytes lineSize_;
  unsigned lineShift_ = 0;  ///< log2(lineSize_)
  std::uint32_t ways_;
  unsigned lruShift_ = 0;  ///< 4 * (ways_ - 1): the LRU nibble's offset
  std::uint64_t full_ = 0;  ///< the ways_ real nibbles of a recency word
  std::size_t sets_ = 0;
  FastDiv setDiv_;  ///< reciprocal for `% sets_`
  CacheAlignedVector<Addr> tags_;  ///< sets_ * ways_, fixed slot per way
  CacheAlignedVector<std::uint64_t> order_;  ///< per-set recency word
  CacheAlignedVector<std::uint32_t> dirty_;  ///< per-set mask (bit = way)
  CacheStats stats_;
};

OCCM_FORCE_INLINE bool SetAssocCache::access(Addr addr, bool write) {
  ++stats_.accesses;
  const Addr line = addr >> lineShift_;
  const std::size_t set = setIndex(line);
  const Addr* base = setBase(set);
  for (std::uint32_t i = 0; i < ways_; ++i) {
    if (base[i] == line) {
      // Everything more recent than the hit line ages by one; the hit
      // line becomes MRU. Tags and dirty bits stay in place.
      std::uint64_t& order = order_[set];
      order = toFront(order, findRank(order, i));
      if (write) {
        dirty_[set] |= std::uint32_t{1} << i;
      }
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

OCCM_FORCE_INLINE bool SetAssocCache::contains(Addr addr) const {
  const Addr line = addr >> lineShift_;
  const Addr* base = setBase(setIndex(line));
  for (std::uint32_t i = 0; i < ways_; ++i) {
    if (base[i] == line) {
      return true;
    }
  }
  return false;
}

OCCM_FORCE_INLINE std::optional<Eviction> SetAssocCache::insert(Addr addr,
                                                                bool write) {
  const Addr line = addr >> lineShift_;
  const std::size_t set = setIndex(line);
  const Addr* base = setBase(set);
  // If already present (e.g. racing fills), just refresh recency/dirty.
  for (std::uint32_t i = 0; i < ways_; ++i) {
    if (base[i] == line) {
      std::uint64_t& order = order_[set];
      order = toFront(order, findRank(order, i));
      if (write) {
        dirty_[set] |= std::uint32_t{1} << i;
      }
      return std::nullopt;
    }
  }
  return insertAbsent(addr, write);
}

OCCM_FORCE_INLINE std::optional<Eviction> SetAssocCache::insertAbsent(
    Addr addr, bool write) {
  const Addr line = addr >> lineShift_;
  const std::size_t set = setIndex(line);
  Addr* base = setBase(set);
  std::uint64_t& order = order_[set];
  std::uint32_t& dirty = dirty_[set];
  // The way at the bottom of the recency order: the LRU valid line, or an
  // invalid way when the set is not yet full (invalid ways always hold
  // the highest ranks — see the header comment).
  const auto victimWay = static_cast<std::uint32_t>(order >> lruShift_) & 15u;
  const Addr victim = base[victimWay];
  const bool victimDirty = ((dirty >> victimWay) & 1u) != 0;
  std::optional<Eviction> evicted;
  if (victim != kNoLine) {
    evicted = Eviction{victim << lineShift_, victimDirty};
    ++stats_.evictions;
    if (victimDirty) {
      ++stats_.dirtyEvictions;
    }
  }
  // Every other way ages by one; the new line takes the slot as MRU.
  order = ((order << 4) & full_) | victimWay;
  base[victimWay] = line;
  const std::uint32_t bit = std::uint32_t{1} << victimWay;
  dirty = write ? (dirty | bit) : (dirty & ~bit);
  return evicted;
}

OCCM_FORCE_INLINE bool SetAssocCache::markDirty(Addr addr) {
  const Addr line = addr >> lineShift_;
  const std::size_t set = setIndex(line);
  const Addr* base = setBase(set);
  for (std::uint32_t i = 0; i < ways_; ++i) {
    if (base[i] == line) {
      dirty_[set] |= std::uint32_t{1} << i;
      return true;
    }
  }
  return false;
}

OCCM_FORCE_INLINE SetAssocCache::InvalidateResult SetAssocCache::invalidate(
    Addr addr) {
  const Addr line = addr >> lineShift_;
  const std::size_t set = setIndex(line);
  Addr* base = setBase(set);
  for (std::uint32_t i = 0; i < ways_; ++i) {
    if (base[i] == line) {
      std::uint64_t& order = order_[set];
      std::uint32_t& dirty = dirty_[set];
      InvalidateResult result{true, ((dirty >> i) & 1u) != 0};
      // Ways older than the removed line move up one rank; the freed way
      // drops to LRU, keeping invalid ways at the highest ranks. The
      // top nibble of order >> 4 is zero, so the freed way fills it.
      const std::uint64_t newer =
          (std::uint64_t{1} << (4 * findRank(order, i))) - 1;
      order = (order & newer) | ((order >> 4) & ~newer) |
              (std::uint64_t{i} << lruShift_);
      base[i] = kNoLine;
      dirty &= ~(std::uint32_t{1} << i);
      ++stats_.invalidations;
      return result;
    }
  }
  return {};
}

}  // namespace occm::cache
