#pragma once

// Open-loop arrival schedule of the advisor workload. Advisor users are
// independent, so requests are due on a seeded Poisson schedule whether or
// not earlier ones were answered; a stalled server therefore faces a
// growing backlog instead of a slower client. Latency counts from when a
// request was due, so a late send is charged to the request, not hidden.

#include <cstdint>
#include <vector>

namespace perfbench {

struct ScheduleConfig {
  std::uint64_t seed = 1;
  double ratePerS = 100.0;  ///< offered rate (mean arrivals per second)
  double durationS = 10.0;  ///< arrivals are due in [0, durationS)
  double tier1Share = 0.1;  ///< share of requests that ask for tier 1
  std::uint32_t tier0Keys = 1;  ///< tier-0 requests pick one of these keys
  std::uint32_t tier1Keys = 1;  ///< tier-1 requests pick one of these keys
};

struct ScheduledRequest {
  std::uint64_t id = 0;  ///< 1-based, in due order
  double dueS = 0.0;     ///< seconds after the schedule starts
  bool tier1 = false;
  std::uint32_t key = 0;  ///< index into the tier's key list
};

/// The same config (seed included) gives the same schedule on every host.
[[nodiscard]] std::vector<ScheduledRequest> makeOpenLoopSchedule(
    const ScheduleConfig& config);

/// Latency of a request answered `doneS` seconds after the schedule
/// started, counted from its due time.
[[nodiscard]] inline double latencyFromDueMs(const ScheduledRequest& request,
                                             double doneS) {
  return (doneS - request.dueS) * 1e3;
}

}  // namespace perfbench
