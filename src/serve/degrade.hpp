#pragma once

// Graceful-degradation policy of the advisor server, kept pure so the
// overload ladder is unit-testable without sockets or clocks: the caller
// feeds in observed load (queue depth, deadline slack, the tier-1
// latency EWMA) and gets back a typed decision — serve tier 1, degrade
// to tier 0 with a named reason, or shed with a named reason. The server
// translates decisions into wire responses and stats counters; this
// header never reads a clock.

#include <cstddef>
#include <cstdint>

#include "serve/protocol.hpp"

namespace occm::serve {

/// Exponentially weighted moving average of tier-1 service latency. The
/// first sample seeds the average (no warm-up bias toward zero).
class LatencyEwma {
 public:
  explicit LatencyEwma(double alpha = 0.2) : alpha_(alpha) {}

  void sample(double ms) noexcept {
    if (!seeded_) {
      value_ = ms;
      seeded_ = true;
      return;
    }
    value_ += alpha_ * (ms - value_);
  }

  [[nodiscard]] bool seeded() const noexcept { return seeded_; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Thresholds of the overload ladder. Zero disables a rung (the server
/// never trips it).
struct DegradeConfig {
  /// Admission queue bound: at or beyond `queueCapacity` pending jobs new
  /// requests shed with kQueueFull.
  std::size_t queueCapacity = 16;
  /// Pending-job depth at or beyond which tier-1 refinement is bypassed
  /// (tier-0 answer flagged kQueueDepth). 0 = never.
  std::size_t degradeQueueDepth = 8;
  /// Deadline slack (ms) below which tier 1 is not even attempted
  /// (kDeadlineSlack). 0 = never.
  double minTier1SlackMs = 0.0;
  /// Tier-1 latency EWMA (ms) at or beyond which the server downgrades to
  /// tier-0-only (kTier1Latency). 0 = never.
  double maxTier1EwmaMs = 0.0;
  /// EWMA smoothing factor.
  double ewmaAlpha = 0.2;
};

/// What the policy saw when it decided (the server's ground truth for a
/// request's admission).
struct DegradeInputs {
  std::size_t queueDepth = 0;  ///< pending jobs at arrival
  bool draining = false;       ///< SIGTERM received; no new admissions
  bool deadlineArmed = false;
  double deadlineSlackMs = 0.0;  ///< remaining ms (<= 0: already expired)
  bool ewmaSeeded = false;
  double tier1EwmaMs = 0.0;
  TierPreference preference = TierPreference::kAuto;
  /// True when a fitted model is already cached — a tier-0 answer is
  /// then instantaneous and needs no queue slot.
  bool modelWarm = false;
};

/// The policy's verdict for one arriving request.
struct AdmissionDecision {
  enum class Action : std::uint8_t {
    kServeTier1 = 0,  ///< admit; submit simulator refinement
    kServeTier0 = 1,  ///< answer from the fitted model
    kShed = 2,        ///< typed rejection, no work done
  };
  Action action = Action::kServeTier0;
  /// kShed only.
  ShedReason shedReason = ShedReason::kNone;
  /// kServeTier0 only: set when the client wanted (or would have gotten)
  /// tier 1 and the ladder downgraded it.
  bool degraded = false;
  DegradeReason degradeReason = DegradeReason::kNone;
};

/// One step of the overload ladder, in priority order:
///   draining > queue bound > deadline feasibility > explicit tier-0
///   preference > degradation rungs (queue depth, deadline slack, EWMA).
/// A warm tier-0 answer needs no queue slot, so an explicit kTier0
/// request on a warm model is served even when the queue is full — the
/// analytic tier is exactly the part that must keep answering under
/// saturation. A cold model always needs a fit job, hence a slot.
[[nodiscard]] inline AdmissionDecision decideAdmission(
    const DegradeConfig& config, const DegradeInputs& in) {
  AdmissionDecision out;
  if (in.draining) {
    out.action = AdmissionDecision::Action::kShed;
    out.shedReason = ShedReason::kDraining;
    return out;
  }
  // A deadline that is already hopeless sheds before consuming a slot.
  if (in.deadlineArmed && in.deadlineSlackMs <= 0.0) {
    out.action = AdmissionDecision::Action::kShed;
    out.shedReason = ShedReason::kDeadlineInfeasible;
    return out;
  }
  const bool wantsTier0Only = in.preference == TierPreference::kTier0;
  const bool needsSlot = !(wantsTier0Only && in.modelWarm);
  if (needsSlot && in.queueDepth >= config.queueCapacity) {
    out.action = AdmissionDecision::Action::kShed;
    out.shedReason = ShedReason::kQueueFull;
    return out;
  }
  if (wantsTier0Only) {
    out.action = AdmissionDecision::Action::kServeTier0;
    return out;
  }
  // Degradation rungs, cheapest signal first.
  if (config.degradeQueueDepth != 0 &&
      in.queueDepth >= config.degradeQueueDepth) {
    out.action = AdmissionDecision::Action::kServeTier0;
    out.degraded = true;
    out.degradeReason = DegradeReason::kQueueDepth;
    return out;
  }
  if (config.minTier1SlackMs > 0.0 && in.deadlineArmed &&
      in.deadlineSlackMs < config.minTier1SlackMs) {
    out.action = AdmissionDecision::Action::kServeTier0;
    out.degraded = true;
    out.degradeReason = DegradeReason::kDeadlineSlack;
    return out;
  }
  if (config.maxTier1EwmaMs > 0.0 && in.ewmaSeeded &&
      in.tier1EwmaMs >= config.maxTier1EwmaMs) {
    out.action = AdmissionDecision::Action::kServeTier0;
    out.degraded = true;
    out.degradeReason = DegradeReason::kTier1Latency;
    return out;
  }
  out.action = AdmissionDecision::Action::kServeTier1;
  return out;
}

}  // namespace occm::serve
