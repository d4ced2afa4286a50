#include "schedule.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

std::vector<ScheduledRequest> makeOpenLoopSchedule(
    const ScheduleConfig& config) {
  std::vector<ScheduledRequest> out;
  if (config.ratePerS <= 0.0 || config.durationS <= 0.0) {
    return out;
  }
  // Separate substreams for gaps and the request mix, so changing the tier
  // share does not move the arrival times.
  occm::Rng gaps = occm::Rng::substream(config.seed, 1);
  occm::Rng mix = occm::Rng::substream(config.seed, 2);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-gaps.uniform()) / config.ratePerS;
    if (t >= config.durationS) {
      break;
    }
    ScheduledRequest r;
    r.id = out.size() + 1;
    r.dueS = t;
    r.tier1 = mix.uniform() < config.tier1Share;
    const std::uint32_t keys = r.tier1 ? config.tier1Keys : config.tier0Keys;
    r.key = keys == 0 ? 0
                      : static_cast<std::uint32_t>(mix.next() % keys);
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench
