#pragma once

// A single set-associative, write-back, LRU cache instance operating on
// line addresses. Purely a tag store: no data values are tracked, only
// presence, dirtiness and recency — all the simulator needs for timing
// and traffic.
//
// Layout (DESIGN.md §14): struct-of-arrays with *fixed tag slots*, a
// per-set fingerprint row and a per-set recency word. Tags live in one
// flat cache-line-aligned std::uint64_t array, one slot per way, and never
// move. Next to them each set has a 16-byte fingerprint row: byte w holds
// a one-byte hash (1..255) of the line in way w, and 0 marks an invalid
// way or padding past the set's ways, so neither can ever match a real
// line. A lookup is one probe(): the set index and the line's fingerprint
// are computed once, one 16-byte compare (SSE2 on x86-64, a byte loop
// elsewhere) yields the candidate ways, and only candidates have their
// full tag checked. A line that is absent usually costs that one compare
// and no tag load. The probe carries the set and the found way, so the
// hierarchy's hit, drop and fill reuse it without a second set index or
// scan.
//
// The set's recency order is one std::uint64_t: nibble k holds the way at
// rank k (0 = MRU, ways-1 = LRU), so at most 16 ways. Every recency
// update is constant-time word arithmetic:
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

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
  /// Probe::way of a line that is not in the cache.
  static constexpr std::uint32_t kAbsent = 16;

  /// Where a line lives in this cache: its set, its fingerprint and the
  /// way holding it (kAbsent when it is not cached). A probe stays valid
  /// until a fill or an invalidation changes that set's lines; dirty-bit
  /// and recency updates leave it valid.
  struct Probe {
    Addr line = 0;  ///< line number (address >> log2 lineSize)
    std::size_t set = 0;
    std::uint32_t way = kAbsent;
    std::uint8_t fingerprint = 0;

    [[nodiscard]] bool present() const noexcept { return way != kAbsent; }
  };

  /// `size` bytes, `lineSize` bytes per line, `ways` associativity
  /// (at most 16 ways: one nibble of the recency word and one byte of
  /// the fingerprint row each).
  SetAssocCache(Bytes size, Bytes lineSize, std::uint32_t ways);

  // The per-access methods are defined inline below the class: they run
  // tens of millions of times per simulated second and the hierarchy's
  // access loop is their only hot caller, so cross-TU call overhead was
  // measurable (DESIGN.md §14).

  /// Finds the line holding byte address `addr` (no stats, no recency).
  [[nodiscard]] Probe probe(Addr addr) const noexcept;

  /// Counts one access of the probed line: on a hit refreshes its recency
  /// (and dirtiness for writes) and returns true; on a miss counts a miss
  /// and returns false, and the caller decides whether to fill().
  bool lookup(const Probe& probe, bool write);

  /// Inserts the probed line, which must be absent, as MRU (dirty when
  /// `write`), evicting the LRU way if the set is full. Returns the
  /// eviction, if any.
  std::optional<Eviction> fill(const Probe& probe, bool write);

  /// Marks the line dirty when present, without touching stats or recency
  /// (used to sink dirty evictions from an inner level). Returns presence.
  bool markDirty(Addr addr);

  /// Removes the line if present; returns whether it was present and dirty.
  struct InvalidateResult {
    bool wasPresent = false;
    bool wasDirty = false;
  };
  InvalidateResult invalidate(Addr addr);
  /// invalidate() of a probed line; the probe then reads absent, ready
  /// for lookup() and fill().
  InvalidateResult invalidate(Probe& probe);

  /// Drops every line (e.g. between independent simulation runs).
  void flush();

  /// The fingerprint of line number `line`: the top byte of a
  /// multiplicative hash, with 0 (the invalid-way mark) folded onto 1.
  [[nodiscard]] static std::uint8_t fingerprint(Addr line) noexcept {
    const auto hash =
        static_cast<std::uint8_t>((line * 0x9E3779B97F4A7C15ULL) >> 56);
    return hash != 0 ? hash : std::uint8_t{1};
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Bytes lineSize() const noexcept { return lineSize_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }

 private:
  /// Bytes per fingerprint row: one per way, padded to 16.
  static constexpr std::size_t kRowBytes = 16;

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
  /// Fingerprint row of a set (16-byte aligned).
  [[nodiscard]] std::uint8_t* row(std::size_t set) noexcept {
    return &fingerprints_[set * kRowBytes];
  }
  [[nodiscard]] const std::uint8_t* row(std::size_t set) const noexcept {
    return &fingerprints_[set * kRowBytes];
  }

  /// The way of `set` holding `line`, or kAbsent: the ways whose
  /// fingerprint byte equals `fp` are the only candidates for a full tag
  /// compare.
  [[nodiscard]] std::uint32_t findWay(std::size_t set, Addr line,
                                      std::uint8_t fp) const noexcept;

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
  /// sets_ * ways_, fixed slot per way; a slot is meaningful only while
  /// its fingerprint byte is nonzero.
  CacheAlignedVector<Addr> tags_;
  /// sets_ * kRowBytes: per-set fingerprint row, 0 = invalid or padding.
  CacheAlignedVector<std::uint8_t> fingerprints_;
  CacheAlignedVector<std::uint64_t> order_;  ///< per-set recency word
  CacheAlignedVector<std::uint32_t> dirty_;  ///< per-set mask (bit = way)
  CacheStats stats_;
};

OCCM_FORCE_INLINE std::uint32_t SetAssocCache::findWay(
    std::size_t set, Addr line, std::uint8_t fp) const noexcept {
  const std::uint8_t* bytes = row(set);
#if defined(__SSE2__)
  const __m128i fps =
      _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
  auto candidates = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(fps, _mm_set1_epi8(static_cast<char>(fp)))));
#else
  std::uint32_t candidates = 0;
  for (std::uint32_t i = 0; i < kRowBytes; ++i) {
    candidates |= std::uint32_t{bytes[i] == fp} << i;
  }
#endif
  const Addr* tags = setBase(set);
  while (candidates != 0) {
    const auto way = static_cast<std::uint32_t>(std::countr_zero(candidates));
    if (tags[way] == line) {
      return way;
    }
    candidates &= candidates - 1;
  }
  return kAbsent;
}

OCCM_FORCE_INLINE SetAssocCache::Probe SetAssocCache::probe(
    Addr addr) const noexcept {
  Probe p;
  p.line = addr >> lineShift_;
  p.set = setIndex(p.line);
  p.fingerprint = fingerprint(p.line);
  p.way = findWay(p.set, p.line, p.fingerprint);
  return p;
}

OCCM_FORCE_INLINE bool SetAssocCache::lookup(const Probe& p, bool write) {
  ++stats_.accesses;
  if (!p.present()) {
    ++stats_.misses;
    return false;
  }
  // Everything more recent than the hit line ages by one; the hit line
  // becomes MRU. Tags, fingerprints and dirty bits stay in place.
  std::uint64_t& order = order_[p.set];
  order = toFront(order, findRank(order, p.way));
  if (write) {
    dirty_[p.set] |= std::uint32_t{1} << p.way;
  }
  ++stats_.hits;
  return true;
}

OCCM_FORCE_INLINE std::optional<Eviction> SetAssocCache::fill(const Probe& p,
                                                             bool write) {
  OCCM_ASSERT(!p.present());
  std::uint64_t& order = order_[p.set];
  std::uint32_t& dirty = dirty_[p.set];
  std::uint8_t* fps = row(p.set);
  // The way at the bottom of the recency order: the LRU valid line, or an
  // invalid way when the set is not yet full (invalid ways always hold
  // the highest ranks — see the header comment).
  const auto victimWay = static_cast<std::uint32_t>(order >> lruShift_) & 15u;
  Addr& tag = setBase(p.set)[victimWay];
  std::optional<Eviction> evicted;
  if (fps[victimWay] != 0) {
    const bool victimDirty = ((dirty >> victimWay) & 1u) != 0;
    evicted = Eviction{tag << lineShift_, victimDirty};
    ++stats_.evictions;
    if (victimDirty) {
      ++stats_.dirtyEvictions;
    }
  }
  // Every other way ages by one; the new line takes the slot as MRU.
  order = ((order << 4) & full_) | victimWay;
  tag = p.line;
  fps[victimWay] = p.fingerprint;
  const std::uint32_t bit = std::uint32_t{1} << victimWay;
  dirty = write ? (dirty | bit) : (dirty & ~bit);
  return evicted;
}

OCCM_FORCE_INLINE bool SetAssocCache::markDirty(Addr addr) {
  const Probe p = probe(addr);
  if (!p.present()) {
    return false;
  }
  dirty_[p.set] |= std::uint32_t{1} << p.way;
  return true;
}

OCCM_FORCE_INLINE SetAssocCache::InvalidateResult SetAssocCache::invalidate(
    Probe& p) {
  if (!p.present()) {
    return {};
  }
  const std::uint32_t way = p.way;
  std::uint64_t& order = order_[p.set];
  std::uint32_t& dirty = dirty_[p.set];
  const InvalidateResult result{true, ((dirty >> way) & 1u) != 0};
  // Ways older than the removed line move up one rank; the freed way
  // drops to LRU, keeping invalid ways at the highest ranks. The top
  // nibble of order >> 4 is zero, so the freed way fills it.
  const std::uint64_t newer =
      (std::uint64_t{1} << (4 * findRank(order, way))) - 1;
  order = (order & newer) | ((order >> 4) & ~newer) |
          (std::uint64_t{way} << lruShift_);
  row(p.set)[way] = 0;
  dirty &= ~(std::uint32_t{1} << way);
  ++stats_.invalidations;
  p.way = kAbsent;
  return result;
}

OCCM_FORCE_INLINE SetAssocCache::InvalidateResult SetAssocCache::invalidate(
    Addr addr) {
  Probe p = probe(addr);
  return invalidate(p);
}

}  // namespace occm::cache
