#include "obs/profiler.hpp"

#include <chrono>

namespace occm::obs {

std::uint64_t steadyNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Phase& Profiler::phase(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Phase& p : phases_) {
    if (p.name() == name) {
      return p;
    }
  }
  return phases_.emplace_back(std::string(name));
}

}  // namespace occm::obs
