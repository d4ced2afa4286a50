#include "fault/fault_plan.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace occm::fault {

namespace {

void requireWindow(Cycles start, Cycles end) {
  OCCM_REQUIRE_MSG(start < end, "fault window must satisfy start < end");
}

}  // namespace

FaultPlan& FaultPlan::controllerOutage(NodeId node, Cycles start, Cycles end) {
  requireWindow(start, end);
  OCCM_REQUIRE_MSG(node >= 0, "controller id must be >= 0");
  events_.push_back({FaultKind::kControllerOutage, node, start, end, 1.0, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::controllerDegrade(NodeId node, Cycles start, Cycles end,
                                        double serviceScale) {
  requireWindow(start, end);
  OCCM_REQUIRE_MSG(node >= 0, "controller id must be >= 0");
  OCCM_REQUIRE_MSG(serviceScale >= 1.0, "degrade scale must be >= 1");
  events_.push_back(
      {FaultKind::kControllerDegrade, node, start, end, serviceScale, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::coreThrottle(CoreId core, Cycles start, Cycles end,
                                   double slowdown) {
  requireWindow(start, end);
  OCCM_REQUIRE_MSG(core >= 0, "core id must be >= 0");
  OCCM_REQUIRE_MSG(slowdown >= 1.0, "throttle slowdown must be >= 1");
  events_.push_back(
      {FaultKind::kCoreThrottle, core, start, end, slowdown, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::eccSpike(NodeId node, Cycles start, Cycles end,
                               double probability, Cycles penalty) {
  requireWindow(start, end);
  OCCM_REQUIRE_MSG(node >= 0, "controller id must be >= 0");
  OCCM_REQUIRE_MSG(probability > 0.0 && probability <= 1.0,
                   "ECC probability must be in (0, 1]");
  OCCM_REQUIRE_MSG(penalty > 0, "ECC penalty must be positive");
  events_.push_back(
      {FaultKind::kEccSpike, node, start, end, probability, penalty, 0});
  return *this;
}

FaultPlan& FaultPlan::backgroundTraffic(NodeId node, Cycles start, Cycles end,
                                        Cycles period) {
  requireWindow(start, end);
  OCCM_REQUIRE_MSG(node >= 0, "controller id must be >= 0");
  OCCM_REQUIRE_MSG(period > 0, "background traffic period must be positive");
  events_.push_back(
      {FaultKind::kBackgroundTraffic, node, start, end, 1.0, 0, period});
  return *this;
}

FaultPlan& FaultPlan::crashAbort(Cycles atCycle, int activeCores) {
  OCCM_REQUIRE_MSG(activeCores >= 0,
                   "crash active-core filter must be >= 0 (0 = every run)");
  events_.push_back(
      {FaultKind::kCrashAbort, activeCores, atCycle, atCycle + 1, 1.0, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::crashSegv(Cycles atCycle, int activeCores) {
  OCCM_REQUIRE_MSG(activeCores >= 0,
                   "crash active-core filter must be >= 0 (0 = every run)");
  events_.push_back(
      {FaultKind::kCrashSegv, activeCores, atCycle, atCycle + 1, 1.0, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::crashOom(Cycles atCycle, int activeCores) {
  OCCM_REQUIRE_MSG(activeCores >= 0,
                   "crash active-core filter must be >= 0 (0 = every run)");
  events_.push_back(
      {FaultKind::kCrashOom, activeCores, atCycle, atCycle + 1, 1.0, 0, 0});
  return *this;
}

bool FaultPlan::hasCrash() const noexcept {
  for (const FaultEvent& e : events_) {
    if (isCrashKind(e.kind)) {
      return true;
    }
  }
  return false;
}

FaultPlan FaultPlan::withoutCrashes() const {
  FaultPlan out;
  for (const FaultEvent& e : events_) {
    if (!isCrashKind(e.kind)) {
      out.events_.push_back(e);
    }
  }
  return out;
}

const FaultEvent* FaultPlan::firstCrash(int activeCores) const noexcept {
  const FaultEvent* best = nullptr;
  for (const FaultEvent& e : events_) {
    if (!isCrashKind(e.kind)) {
      continue;
    }
    if (e.target != 0 && e.target != activeCores) {
      continue;
    }
    if (best == nullptr || e.start < best->start) {
      best = &e;
    }
  }
  return best;
}

void FaultPlan::validate(int controllers, int cores,
                         std::span<const NodeId> activeNodes) const {
  for (const FaultEvent& e : events_) {
    if (isCrashKind(e.kind)) {
      // A crash event's target is an active-core-count filter, not a
      // machine resource — nothing machine-dependent to check.
      continue;
    }
    const bool coreFault = e.kind == FaultKind::kCoreThrottle;
    const std::int32_t limit = coreFault ? cores : controllers;
    OCCM_REQUIRE_MSG(e.target < limit,
                     std::string(toString(e.kind)) + " targets " +
                         (coreFault ? "core " : "controller ") +
                         std::to_string(e.target) + " but the machine has " +
                         std::to_string(limit));
  }

  // Outages must leave at least one active controller healthy at every
  // instant: merge each active node's outage intervals, then sweep the
  // union's boundaries counting simultaneously-down nodes.
  std::vector<std::pair<Cycles, int>> boundaries;  // (time, +1/-1)
  for (NodeId node : activeNodes) {
    std::vector<std::pair<Cycles, Cycles>> windows;
    for (const FaultEvent& e : events_) {
      if (e.kind == FaultKind::kControllerOutage && e.target == node) {
        windows.emplace_back(e.start, e.end);
      }
    }
    if (windows.empty()) {
      continue;
    }
    std::sort(windows.begin(), windows.end());
    Cycles start = windows.front().first;
    Cycles end = windows.front().second;
    for (std::size_t i = 1; i < windows.size(); ++i) {
      if (windows[i].first <= end) {
        end = std::max(end, windows[i].second);
      } else {
        boundaries.emplace_back(start, +1);
        boundaries.emplace_back(end, -1);
        start = windows[i].first;
        end = windows[i].second;
      }
    }
    boundaries.emplace_back(start, +1);
    boundaries.emplace_back(end, -1);
  }
  std::sort(boundaries.begin(), boundaries.end());
  int down = 0;
  for (const auto& [time, delta] : boundaries) {
    down += delta;
    OCCM_REQUIRE_MSG(
        down < static_cast<int>(activeNodes.size()) || activeNodes.empty(),
        "outage plan takes down all " + std::to_string(activeNodes.size()) +
            " active controllers at cycle " + std::to_string(time) +
            "; at least one must stay healthy");
  }
}

}  // namespace occm::fault
