#pragma once

// Cooperative cancellation and deadline primitives for long-running work
// (sweeps, simulations, pool tasks).
//
// The model is strictly cooperative: a CancellationSource owns a shared
// stop flag, hands out CancellationTokens (cheap copies observing the
// same flag), and the code doing the work polls the token at well-defined
// points — the simulator's event-loop boundary, a sweep task's attempt
// boundary — so where work stops is deterministic even though *when* the
// request arrives is not. requestStop() is a lock-free atomic store and
// is safe to call from a signal handler (graceful Ctrl-C) or another
// thread. A token may also carry a Deadline (withDeadline), so a wall
// limit is one more way for the same poll to report a stop — no thread
// has to watch the clock and flip a flag.
//
// Work that observes a stop request or exhausts a cycle budget unwinds by
// throwing RunAborted, a typed exception carrying the reason and the
// simulated cycle it fired at, so harnesses can map it to a structured
// failure record instead of a generic error string.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace occm {

/// A wall-clock deadline against the steady clock. Inert when
/// default-constructed (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `seconds` from now. seconds <= 0 (or NaN) gives an
  /// already-expired deadline; a span past the clock's range (inf
  /// included) saturates at the clock's maximum instead of overflowing.
  [[nodiscard]] static Deadline after(double seconds) {
    using Clock = std::chrono::steady_clock;
    Deadline d;
    d.armed_ = true;
    const Clock::time_point now = Clock::now();
    if (!(seconds > 0.0)) {
      d.at_ = now;
      return d;
    }
    // One second short of the range: absorbs the double rounding there.
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now)
            .count() -
        1.0;
    d.at_ = seconds >= headroom
                ? Clock::time_point::max()
                : now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
    return d;
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  [[nodiscard]] bool expired() const noexcept {
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Seconds until expiry (negative once past); +infinity when unarmed.
  [[nodiscard]] double remainingSeconds() const noexcept {
    if (!armed_) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double>(at_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

 private:
  friend class CancellationToken;

  /// The earlier of two deadlines; an unarmed one never wins.
  [[nodiscard]] static Deadline earlier(const Deadline& a,
                                        const Deadline& b) noexcept {
    if (!a.armed_) {
      return b;
    }
    if (!b.armed_) {
      return a;
    }
    return a.at_ <= b.at_ ? a : b;
  }

  std::chrono::steady_clock::time_point at_{};
  bool armed_ = false;
};

/// Read side of a stop flag, optionally carrying a Deadline: the token
/// reports a stop once its source requested one or its deadline passed.
/// Default-constructed tokens are inert: no flag, no deadline, never a
/// stop request.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True when this token has a flag or an armed deadline, i.e. when
  /// polling it can ever report a stop.
  [[nodiscard]] bool valid() const noexcept {
    return flag_ != nullptr || deadline_.armed();
  }

  /// True once the owning source requested a stop (relaxed load) or the
  /// deadline expired (a steady-clock read — poll a deadline-carrying
  /// token at a coarser grain than per event).
  [[nodiscard]] bool stopRequested() const noexcept {
    return (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) ||
           deadline_.expired();
  }

  /// This token's flag with `deadline` added; when both are armed the
  /// earlier one wins.
  [[nodiscard]] CancellationToken withDeadline(
      const Deadline& deadline) const {
    CancellationToken token = *this;
    token.deadline_ = Deadline::earlier(deadline_, deadline);
    return token;
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
  Deadline deadline_;
};

/// Write side: owns the flag, hands out tokens. Copies share the flag.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  [[nodiscard]] CancellationToken token() const {
    return CancellationToken(flag_);
  }

  /// Requests a stop. Idempotent; async-signal-safe (one atomic store on
  /// pre-allocated state).
  void requestStop() noexcept { flag_->store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool stopRequested() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Why a run was aborted at a cancellation point.
enum class AbortReason : std::uint8_t {
  kCancelled,    ///< a CancellationToken observed a stop request
  kCycleBudget,  ///< the simulated-cycle budget was exhausted
};

[[nodiscard]] constexpr const char* toString(AbortReason reason) noexcept {
  switch (reason) {
    case AbortReason::kCancelled: return "cancelled";
    case AbortReason::kCycleBudget: return "cycle-budget";
  }
  return "unknown";
}

/// Thrown from a deterministic cancellation point (the simulator's event
/// loop) when a run must stop early. Carries the reason and the simulated
/// cycle the abort fired at so harnesses can produce a typed, diagnosable
/// failure record.
class RunAborted : public std::runtime_error {
 public:
  RunAborted(AbortReason reason, Cycles atCycle, const std::string& what)
      : std::runtime_error(what), reason_(reason), atCycle_(atCycle) {}

  [[nodiscard]] AbortReason reason() const noexcept { return reason_; }
  [[nodiscard]] Cycles atCycle() const noexcept { return atCycle_; }

 private:
  AbortReason reason_;
  Cycles atCycle_;
};

}  // namespace occm
