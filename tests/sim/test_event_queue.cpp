// Property suite for the event loop's timing wheel: its pop order must be
// EXACTLY the (time, push order) total order of a binary heap keyed on
// (time, sequence number), under randomized monotone schedules that keep
// at most one pending event per core — the contract the event loop keeps
// and the wheel rests on (DESIGN.md §14).

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace occm::sim {
namespace {

/// The wheel's window in cycles: a push this far past the last pop takes
/// the overflow path.
constexpr Cycles kWindow = 8192;

struct Sequenced {
  Event event;
  std::uint64_t seq = 0;
};

struct Later {
  bool operator()(const Sequenced& a, const Sequenced& b) const noexcept {
    return a.event.time != b.event.time ? a.event.time > b.event.time
                                        : a.seq > b.seq;
  }
};

/// The reference: a binary heap keyed on (time, push sequence number).
class ReferenceQueue {
 public:
  void push(Cycles time, CoreId core, EventKind kind) {
    heap_.push({{time, core, kind}, seq_++});
  }
  Event pop() {
    const Event e = heap_.top().event;
    heap_.pop();
    return e;
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  std::priority_queue<Sequenced, std::vector<Sequenced>, Later> heap_;
  std::uint64_t seq_ = 0;
};

void expectSameEvent(const Event& ref, const Event& got,
                     const std::string& context) {
  EXPECT_EQ(ref.time, got.time) << context;
  EXPECT_EQ(ref.core, got.core) << context;
  EXPECT_EQ(static_cast<int>(ref.kind), static_cast<int>(got.kind))
      << context;
}

TEST(EventWheel, StartsEmpty) {
  EventWheel q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW((void)q.pop(), ContractViolation);
}

// The wheel's contract: one pending event per core, and no push before
// the last pop. Both are invariant checks, compiled out with
// OCCM_DISABLE_ASSERTS; popping an empty wheel is always refused.
TEST(EventWheel, RejectsContractBreaches) {
  EventWheel q(2);
  q.push(100, 0, EventKind::kAdvance);
#ifndef OCCM_DISABLE_ASSERTS
  EXPECT_THROW(q.push(200, 0, EventKind::kIssue), ContractViolation);
#endif
  EXPECT_EQ(q.pop().time, 100u);
#ifndef OCCM_DISABLE_ASSERTS
  EXPECT_THROW(q.push(99, 1, EventKind::kAdvance), ContractViolation);
#endif
  q.push(100, 0, EventKind::kAdvance);  // the core is free again
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().core, 0);
  EXPECT_THROW((void)q.pop(), ContractViolation);
}

TEST(EventWheel, PopsInTimeOrder) {
  EventWheel q(4);
  q.push(300, 1, EventKind::kAdvance);
  q.push(100, 2, EventKind::kIssue);
  q.push(200, 3, EventKind::kAdvance);
  EXPECT_EQ(q.size(), 3u);
  const Event first = q.pop();
  EXPECT_EQ(first.time, 100u);
  EXPECT_EQ(first.core, 2);
  EXPECT_EQ(first.kind, EventKind::kIssue);
  EXPECT_EQ(q.pop().time, 200u);
  EXPECT_EQ(q.pop().time, 300u);
  EXPECT_TRUE(q.empty());
}

// Same-cycle events must come out in push order: the FIFO stability the
// simulator's tie-break depends on.
TEST(EventWheel, SameCycleEventsAreFifoStable) {
  constexpr int kCores = 32;
  EventWheel q(kCores);
  for (int i = 0; i < kCores; ++i) {
    q.push(1000, (i * 7) % kCores, EventKind::kAdvance);
  }
  for (int i = 0; i < kCores; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 1000u);
    EXPECT_EQ(e.core, (i * 7) % kCores)
        << "same-cycle pop order must follow push order";
  }
}

// Events at or past the window's end take the overflow path and still
// come out in exact order, same-cycle ties in push order.
TEST(EventWheel, OverflowEventsKeepExactOrder) {
  EventWheel q(4);
  q.push(5, 0, EventKind::kAdvance);
  q.push(1'000'000, 1, EventKind::kIssue);
  q.push(kWindow + 5, 2, EventKind::kAdvance);  // just past the window
  q.push(1'000'000, 3, EventKind::kAdvance);
  EXPECT_EQ(q.pop().time, 5u);
  EXPECT_EQ(q.pop().time, kWindow + 5);
  const Event a = q.pop();
  const Event b = q.pop();
  EXPECT_EQ(a.time, 1'000'000u);
  EXPECT_EQ(a.core, 1);
  EXPECT_EQ(b.time, 1'000'000u);
  EXPECT_EQ(b.core, 3);
  EXPECT_TRUE(q.empty());
}

// An overflow event was pushed before any direct push to its cycle can
// be, so it must come out first even when a later push, made once the
// window has moved, lands on the very same cycle.
TEST(EventWheel, OverflowCycleReusedByALaterDirectPush) {
  EventWheel q(3);
  const Cycles target = kWindow + 100;
  q.push(0, 0, EventKind::kAdvance);
  q.push(target, 1, EventKind::kIssue);  // overflow: past [0, kWindow)
  q.push(200, 2, EventKind::kAdvance);
  EXPECT_EQ(q.pop().core, 0);
  const Event e = q.pop();  // time 200: target is inside the window now
  ASSERT_EQ(e.core, 2);
  q.push(target, 2, EventKind::kAdvance);  // direct push, same cycle
  q.push(target, 0, EventKind::kIssue);
  const Event first = q.pop();
  EXPECT_EQ(first.time, target);
  EXPECT_EQ(first.core, 1) << "the overflow event was pushed first";
  EXPECT_EQ(q.pop().core, 2);
  EXPECT_EQ(q.pop().core, 0);
  EXPECT_TRUE(q.empty());
}

// With only overflow events left, the window jumps to their minimum, and
// a later window jump keeps working too.
TEST(EventWheel, OnlyOverflowLeftJumpsTheWindow) {
  EventWheel q(4);
  q.push(50 * kWindow, 0, EventKind::kAdvance);
  q.push(3 * kWindow + 7, 1, EventKind::kIssue);
  q.push(3 * kWindow + 7, 2, EventKind::kAdvance);
  q.push(90 * kWindow + 1, 3, EventKind::kAdvance);
  EXPECT_EQ(q.pop().core, 1);
  EXPECT_EQ(q.pop().core, 2);
  EXPECT_EQ(q.pop().time, 50 * kWindow);
  q.push(50 * kWindow + kWindow - 1, 0, EventKind::kIssue);  // last slot
  EXPECT_EQ(q.pop().time, 50 * kWindow + kWindow - 1);
  EXPECT_EQ(q.pop().time, 90 * kWindow + 1);
  EXPECT_TRUE(q.empty());
}

// The full equivalence property. Each round keeps at most one pending
// event per core and pushes only at or after the last popped time, the
// event loop's contract, and compares every pop with the reference heap.
// Push times mix same-cycle ties, short hops, the window's edge, jumps
// far past it and the cycle of a random pending event — often one that
// waited in overflow, so a later direct push reuses its cycle. Idle
// stretches drain the wheel down to overflow only.
TEST(EventWheel, MatchesReferenceHeapOnRandomSchedules) {
  Rng rng(0xCA1E17DA);
  for (const int cores : {1, 24, 48, 64}) {
    for (int round = 0; round < 30; ++round) {
      EventWheel wheel(static_cast<std::size_t>(cores));
      ReferenceQueue reference;
      std::vector<CoreId> idle;
      std::vector<CoreId> busy;  // cores with a pending event
      std::vector<Cycles> due(static_cast<std::size_t>(cores), 0);
      for (CoreId c = 0; c < cores; ++c) {
        idle.push_back(c);
      }
      Cycles lastPop = 0;
      std::uint64_t pushes = 0;
      std::uint64_t pops = 0;
      for (int step = 0; step < 3000; ++step) {
        const bool doPush =
            !idle.empty() && (reference.empty() || rng.next() % 100 < 50);
        if (doPush) {
          const std::size_t pick = rng.next() % idle.size();
          const CoreId core = idle[pick];
          idle[pick] = idle.back();
          idle.pop_back();
          const std::uint64_t shape = rng.next() % 100;
          Cycles time = lastPop;  // below 20: a tie with the frontier
          if (shape >= 82 && !busy.empty()) {
            time = due[static_cast<std::size_t>(
                busy[rng.next() % busy.size()])];  // a pending cycle
          } else if (shape >= 70) {
            time += kWindow + rng.next() % (4 * kWindow);  // overflow
          } else if (shape >= 62) {
            time += kWindow - 2 + rng.next() % 4;  // the window's edge
          } else if (shape >= 50) {
            time += rng.next() % kWindow;
          } else if (shape >= 20) {
            time += rng.next() % 300;
          }
          const EventKind kind = (rng.next() & 1) != 0 ? EventKind::kIssue
                                                       : EventKind::kAdvance;
          wheel.push(time, core, kind);
          reference.push(time, core, kind);
          due[static_cast<std::size_t>(core)] = time;
          busy.push_back(core);
          ++pushes;
        } else if (!reference.empty()) {
          const Event want = reference.pop();
          const Event got = wheel.pop();
          expectSameEvent(want, got,
                          "cores=" + std::to_string(cores) + " round=" +
                              std::to_string(round) + " pop#" +
                              std::to_string(pops));
          lastPop = want.time;
          busy.erase(std::find(busy.begin(), busy.end(), want.core));
          idle.push_back(want.core);
          ++pops;
        }
        ASSERT_EQ(wheel.size(), reference.size());
      }
      while (!reference.empty()) {
        expectSameEvent(reference.pop(), wheel.pop(),
                        "drain cores=" + std::to_string(cores));
        ++pops;
      }
      EXPECT_TRUE(wheel.empty());
      EXPECT_EQ(pushes, pops) << "push/pop conservation";
    }
  }
}

// Conservation under the event loop's shape: every popped core pushes
// its follow-up event right away until its work runs out. The depth
// never exceeds the core count and every push is matched by a pop.
TEST(EventWheel, ConservationWithPerCoreOutstandingEvents) {
  Rng rng(7);
  constexpr int kCores = 8;
  EventWheel q(kCores);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::size_t maxDepth = 0;
  for (CoreId c = 0; c < kCores; ++c) {
    q.push(0, c, EventKind::kAdvance);
    ++pushed;
  }
  std::vector<std::uint64_t> remaining(kCores, 50);
  while (!q.empty()) {
    maxDepth = std::max(maxDepth, q.size());
    const Event e = q.pop();
    ++popped;
    auto& left = remaining[static_cast<std::size_t>(e.core)];
    if (left == 0) {
      continue;  // core done: no follow-up event
    }
    --left;
    q.push(e.time + 1 + rng.next() % 500, e.core,
           e.kind == EventKind::kAdvance ? EventKind::kIssue
                                         : EventKind::kAdvance);
    ++pushed;
  }
  EXPECT_EQ(pushed, popped);
  EXPECT_EQ(pushed, kCores * 51u);
  EXPECT_LE(maxDepth, static_cast<std::size_t>(kCores));
}

}  // namespace
}  // namespace occm::sim
