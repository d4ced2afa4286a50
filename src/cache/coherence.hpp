#pragma once

// MESI-lite invalidation directory for shared cache lines.
//
// Threads are pinned for the lifetime of a run, so private data can only
// ever be cached by one core; the directory therefore tracks only
// addresses in the shared area (trace::AddressSpace::isShared). Per line
// it records which logical cores hold a copy and whether one of them has
// written it. A write by core c invalidates every other holder's copies
// (their next read becomes a coherence miss, served — simplification
// documented in DESIGN.md — like a memory access). This is the mechanism
// behind the paper's EP observation: LLC misses grow from ~2e3 to ~3e7 as
// active cores increase, driven by false sharing of result lines.
//
// Storage (DESIGN.md §14): a table indexed directly by line number.
// The shared area is allocated contiguously from address 0, so line n's
// entry lives at slot n % 4096 of page n / 4096; a page (4096 entries of
// 16 B) is zero-allocated the first time one of its lines is touched,
// and an all-zero entry means "untracked". A streamed access stays on
// the page of the previous one, which a one-entry cache answers with a
// compare and an indexed load. The sharer set is exposed as a bitmask so
// the hierarchy can walk victims with countr_zero instead of allocating
// a vector; the vector API remains as a thin wrapper. All counters and
// invalidation orders are identical to the original map-based
// implementation (pinned by the golden corpus).

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {

struct CoherenceStats {
  std::uint64_t upgrades = 0;           ///< writes that invalidated sharers
  std::uint64_t invalidationsSent = 0;  ///< per-holder invalidation messages
  std::uint64_t coherenceMisses = 0;    ///< reads of an invalidated copy
};

class CoherenceDirectory {
 public:
  /// Up to 64 logical cores (a bitmask per line); `lineSize` is the
  /// hierarchy's line size, a power of two.
  explicit CoherenceDirectory(int cores, Bytes lineSize = 64)
      : cores_(cores), lineShift_(std::countr_zero(lineSize)) {
    OCCM_REQUIRE_MSG(cores >= 1 && cores <= 64,
                     "directory supports 1..64 cores");
    OCCM_REQUIRE_MSG(std::has_single_bit(lineSize),
                     "line size must be a power of two");
  }

  /// Opaque handle to one shared line's directory state, valid until the
  /// next beginAccess/onAccess/onEviction/dropLines/clear call. Lets the
  /// hierarchy pay ONE table lookup per shared access: beginAccess answers
  /// the pre-lookup invalidation question, the handle carries the entry
  /// to commitAccess after the cache fills.
  struct AccessHandle {
    void* entry = nullptr;
    /// Owner whose remote write invalidated this core's copy, or -1 —
    /// exactly invalidatingOwner(lineAddr, core), minus the extra lookup.
    CoreId invalidatingOwner = -1;
  };

  /// First half of an access: locates the line's entry (allocating its
  /// page on first touch) and reports whether `core`'s copy was
  /// invalidated by a remote write.
  [[nodiscard]] AccessHandle beginAccess(Addr lineAddr, CoreId core) {
    OCCM_ASSERT(core >= 0 && core < cores_);
    const Addr line = lineAddr >> lineShift_;
    if ((line >> kPageBits) != lastPageIndex_) [[unlikely]] {
      touchPage(line >> kPageBits);
    }
    Entry& entry = lastPage_[line & (kPageEntries - 1)];
    AccessHandle handle;
    handle.entry = &entry;
    handle.invalidatingOwner = invalidatingOwnerOf(entry, core);
    return handle;
  }

  /// Second half: applies the access to the entry found by beginAccess
  /// and returns the bitmask of cores whose copies must be invalidated
  /// (0 for reads and for writes with no other sharer).
  std::uint64_t commitAccess(const AccessHandle& handle, CoreId core,
                             bool write) {
    Entry& entry = *static_cast<Entry*>(handle.entry);
    const std::uint64_t bit = std::uint64_t{1} << core;
    // A committed entry always has a sharer, so an empty set means the
    // line starts being tracked now.
    size_ += entry.sharers == 0 ? 1 : 0;
    std::uint64_t toInvalidate = 0;
    if (write) {
      const std::uint64_t others = entry.sharers & ~bit;
      if (others != 0) {
        ++stats_.upgrades;
        stats_.invalidationsSent +=
            static_cast<std::uint64_t>(std::popcount(others));
        toInvalidate = others;
      }
      entry.sharers = bit;
      entry.modified = true;
      entry.ownerPlusOne = core + 1;
    } else {
      if (entry.modified && entry.ownerPlusOne != core + 1) {
        // Dirty data produced elsewhere: the read is a coherence miss.
        ++stats_.coherenceMisses;
        entry.modified = false;
      }
      entry.sharers |= bit;
    }
    return toInvalidate;
  }

  /// One-shot lookup-and-update. Returns the bitmask of cores whose
  /// copies must be invalidated (0 for reads and for writes with no
  /// other sharer).
  std::uint64_t onAccessMask(Addr lineAddr, CoreId core, bool write) {
    return commitAccess(beginAccess(lineAddr, core), core, write);
  }

  /// As onAccessMask, expanded to a core list in ascending order.
  std::vector<CoreId> onAccess(Addr lineAddr, CoreId core, bool write) {
    std::uint64_t mask = onAccessMask(lineAddr, core, write);
    std::vector<CoreId> toInvalidate;
    while (mask != 0) {
      toInvalidate.push_back(std::countr_zero(mask));
      mask &= mask - 1;
    }
    return toInvalidate;
  }

  /// True when `core` lost its copy of the line to a remote write since it
  /// last accessed it. Note the asymmetry exploited by the hierarchy: the
  /// copy survives in any cache instance the core *shares with the owner*
  /// (e.g. the socket LLC when writer and reader are on one socket), so
  /// within-socket false sharing is a cheap LLC hit while cross-socket
  /// false sharing goes off-chip.
  [[nodiscard]] bool isInvalidatedFor(Addr lineAddr, CoreId core) const {
    return invalidatingOwner(lineAddr, core) >= 0;
  }

  /// Core that most recently wrote the line, or -1.
  [[nodiscard]] CoreId ownerOf(Addr lineAddr) const {
    const Entry* entry = find(lineAddr);
    return entry == nullptr ? -1 : entry->ownerPlusOne - 1;
  }

  /// Single-lookup combination of isInvalidatedFor + ownerOf: the owner
  /// whose remote write invalidated `core`'s copy, or -1 when the copy is
  /// still good (or untracked).
  [[nodiscard]] CoreId invalidatingOwner(Addr lineAddr,
                                         CoreId core) const {
    const Entry* entry = find(lineAddr);
    return entry == nullptr ? -1 : invalidatingOwnerOf(*entry, core);
  }

  /// Removes a core's sharing bit (e.g. natural eviction); the line is
  /// untracked once no sharer is left.
  void onEviction(Addr lineAddr, CoreId core) {
    Entry* entry = find(lineAddr);
    if (entry == nullptr || entry->sharers == 0) {
      return;
    }
    entry->sharers &= ~(std::uint64_t{1} << core);
    if (entry->sharers == 0) {
      *entry = Entry{};
      --size_;
    }
  }

  [[nodiscard]] const CoherenceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t trackedLines() const noexcept { return size_; }

  /// Untracks every line; the counters are kept.
  void dropLines() {
    pages_.clear();
    lastPageIndex_ = kNoPage;
    lastPage_ = nullptr;
    size_ = 0;
  }

  /// Untracks every line and zeroes the counters.
  void clear() {
    dropLines();
    stats_ = {};
  }

 private:
  /// One line's state; all-zero is "untracked", hence owner + 1.
  struct Entry {
    std::uint64_t sharers = 0;
    CoreId ownerPlusOne = 0;  ///< last writer + 1, or 0
    bool modified = false;
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr int kPageBits = 12;
  static constexpr Addr kPageEntries = Addr{1} << kPageBits;
  static constexpr Addr kNoPage = ~Addr{0};

  [[nodiscard]] static CoreId invalidatingOwnerOf(const Entry& entry,
                                                  CoreId core) noexcept {
    // Only a write creates invalid copies: read-shared lines (no owner)
    // coexist in any number of caches.
    if (entry.ownerPlusOne == 0 || entry.ownerPlusOne == core + 1 ||
        ((entry.sharers >> core) & 1) != 0) {
      return -1;
    }
    return entry.ownerPlusOne - 1;
  }

  /// The line's entry, or nullptr when its page was never touched.
  [[nodiscard]] Entry* find(Addr lineAddr) const noexcept {
    const Addr line = lineAddr >> lineShift_;
    const Addr page = line >> kPageBits;
    if (page >= pages_.size() || !pages_[page]) {
      return nullptr;
    }
    return &pages_[page][line & (kPageEntries - 1)];
  }

  /// Makes `page` the cached last page, allocating it on first touch.
  /// Only shared-area lines reach the directory, and the shared area
  /// lies below kPrivateBase, which bounds the page table.
  void touchPage(Addr page) {
    OCCM_REQUIRE_MSG(
        page < ((trace::AddressSpace::kPrivateBase >> lineShift_) >>
                kPageBits),
        "directory tracks shared-area lines only");
    if (page >= pages_.size()) {
      pages_.resize(page + 1);
    }
    if (!pages_[page]) {
      pages_[page] = std::make_unique<Entry[]>(kPageEntries);
    }
    lastPageIndex_ = page;
    lastPage_ = pages_[page].get();
  }

  int cores_;
  int lineShift_;
  std::vector<std::unique_ptr<Entry[]>> pages_;
  Addr lastPageIndex_ = kNoPage;
  Entry* lastPage_ = nullptr;
  std::size_t size_ = 0;
  CoherenceStats stats_;
};

}  // namespace occm::cache
