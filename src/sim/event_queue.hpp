#pragma once

// Timing wheel of the cycle-level event loop (DESIGN.md §14).
//
// The simulator's schedule has two properties a general priority queue
// cannot exploit: a pushed time never precedes the last popped time
// (cores only schedule forward), and each core has at most one pending
// event (a handler pops its core's only event and pushes at most one).
// The wheel turns both into O(1) work per event, after the hashed timing
// wheels of Varghese and Lauck (SOSP 1987):
//
// - each core owns one pending {time, kind} slot and one `next` index;
//   nothing is allocated after construction;
// - 8192 one-cycle slots cover the window [base, base + 8192), where
//   base is the last popped time. A slot is a FIFO of the cores whose
//   event falls on that cycle, threaded through `next`;
// - a two-level occupancy bitmap (128 words under a 128-bit summary)
//   finds the earliest non-empty slot, searched circularly from base
//   with countr_zero;
// - an event at or past the window's end waits in an overflow list, in
//   push order. It moves to its slot right after the pop that brings its
//   cycle inside the window, before that pop's handler can push anything.
//   When only overflow is left, the window jumps to the overflow minimum.
//
// The pop order is EXACTLY the total order of (time, push order), which a
// binary heap keyed on (time, global sequence number) also produces:
// slots hold one cycle each and are visited in time order, and a slot's
// FIFO holds its events in push order, because an overflow event (pushed
// earlier) enters its slot before any direct push to that cycle can
// happen. tests/sim/test_event_queue.cpp pins this against such a heap.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace occm::sim {

enum class EventKind : std::uint8_t {
  kAdvance,  ///< core resumes executing operations
  kIssue,    ///< core presents its pending off-chip request to memory
};

struct Event {
  Cycles time = 0;
  CoreId core = 0;
  EventKind kind = EventKind::kAdvance;
};

class EventWheel {
 public:
  /// A wheel for cores 0..cores-1, each with at most one pending event.
  explicit EventWheel(std::size_t cores)
      : pending_(cores), next_(cores, kIdle), slots_(kSlots) {
    overflow_.reserve(cores);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Contract: `core` has no pending event, and `time` does not precede
  /// the time of the last pop() — the event loop only schedules forward.
  void push(Cycles time, CoreId core, EventKind kind) {
    const auto c = static_cast<std::uint32_t>(core);
    OCCM_ASSERT(c < next_.size() && next_[c] == kIdle);
    OCCM_ASSERT(time >= base_);
    pending_[c] = {time, kind};
    if (time - base_ < kSlots) {
      link(c, time);
    } else {
      next_[c] = kEnd;  // queued, but in no slot yet
      overflow_.push_back(c);
      overflowMin_ = std::min(overflowMin_, time);
    }
    ++size_;
  }

  /// Removes and returns the earliest event; same-cycle events come out
  /// in push order.
  Event pop() {
    OCCM_REQUIRE_MSG(size_ != 0, "pop from empty event queue");
    if (size_ == overflow_.size()) {
      base_ = overflowMin_;
      refill();
    }
    const std::uint32_t slot = firstSlot();
    Slot& s = slots_[slot];
    const std::uint32_t c = s.head;
    s.head = next_[c];
    if (s.head == kEnd) {
      clearBit(slot);
    }
    next_[c] = kIdle;
    const Pending p = pending_[c];
    base_ = p.time;
    --size_;
    if (overflowMin_ - base_ < kSlots) {
      refill();
    }
    return {p.time, static_cast<CoreId>(c), p.kind};
  }

 private:
  static constexpr Cycles kSlots = 8192;
  static constexpr std::uint32_t kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kWords = kSlots / 64;
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};   ///< list end
  static constexpr std::uint32_t kIdle = kEnd - 1;  ///< core not queued
  static constexpr Cycles kNever = ~Cycles{0};

  struct Pending {
    Cycles time = 0;
    EventKind kind = EventKind::kAdvance;
  };
  struct Slot {
    std::uint32_t head = kEnd;
    std::uint32_t tail = kEnd;
  };

  /// Appends core `c` to the FIFO of the slot for `time` (inside the
  /// window).
  void link(std::uint32_t c, Cycles time) noexcept {
    const auto slot = static_cast<std::uint32_t>(time) & kSlotMask;
    Slot& s = slots_[slot];
    next_[c] = kEnd;
    if (s.head == kEnd) {
      s.head = c;
      bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      summary_[slot >> 12] |= std::uint64_t{1} << ((slot >> 6) & 63);
    } else {
      next_[s.tail] = c;
    }
    s.tail = c;
  }

  void clearBit(std::uint32_t slot) noexcept {
    const std::uint32_t word = slot >> 6;
    bits_[word] &= ~(std::uint64_t{1} << (slot & 63));
    if (bits_[word] == 0) {
      summary_[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
    }
  }

  /// Earliest non-empty slot of a non-empty wheel: the first set bit at
  /// or after base's slot, wrapping around once.
  [[nodiscard]] std::uint32_t firstSlot() const noexcept {
    const auto from = static_cast<std::uint32_t>(base_) & kSlotMask;
    const std::uint32_t word = from >> 6;
    const std::uint64_t here =
        bits_[word] & (~std::uint64_t{0} << (from & 63));
    if (here != 0) {
      return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(here));
    }
    // After a wrap the search may come back to `word` itself; only its
    // bits below `from` can be set then.
    std::uint32_t next = nextWord(word + 1);
    if (next == kWords) {
      next = nextWord(0);
    }
    OCCM_ASSERT(next < kWords);
    return (next << 6) |
           static_cast<std::uint32_t>(std::countr_zero(bits_[next]));
  }

  /// First non-empty bitmap word at index >= `from`, or kWords.
  [[nodiscard]] std::uint32_t nextWord(std::uint32_t from) const noexcept {
    for (std::uint32_t half = from >> 6; half < 2; ++half) {
      const unsigned skip = from > half * 64 ? from - half * 64 : 0;
      const std::uint64_t live =
          summary_[half] & (~std::uint64_t{0} << skip);
      if (live != 0) {
        return half * 64 + static_cast<std::uint32_t>(std::countr_zero(live));
      }
    }
    return kWords;
  }

  /// Moves every overflow event now inside the window to its slot, in
  /// push order, and recomputes the overflow minimum.
  void refill() noexcept {
    std::size_t keep = 0;
    Cycles min = kNever;
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
      const std::uint32_t c = overflow_[i];
      const Cycles time = pending_[c].time;
      if (time - base_ < kSlots) {
        link(c, time);
      } else {
        overflow_[keep++] = c;
        min = std::min(min, time);
      }
    }
    overflow_.resize(keep);
    overflowMin_ = min;
  }

  std::vector<Pending> pending_;      ///< per core
  std::vector<std::uint32_t> next_;   ///< per core: FIFO link or kIdle
  std::vector<Slot> slots_;           ///< kSlots one-cycle FIFOs
  std::array<std::uint64_t, kWords> bits_{};   ///< slot occupancy
  std::array<std::uint64_t, 2> summary_{};     ///< word occupancy
  std::vector<std::uint32_t> overflow_;  ///< cores past the window
  Cycles overflowMin_ = kNever;
  Cycles base_ = 0;  ///< time of the last pop: the window's start
  std::size_t size_ = 0;
};

}  // namespace occm::sim
