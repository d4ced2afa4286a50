#include "hostref.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <queue>
#include <vector>

namespace perfbench {

namespace {

/// A small set-associative LRU cache and an event heap driven by a
/// hashed address stream: the same kind of branchy, cache-resident integer
/// work the simulator does, in code the program does not share.
std::uint64_t referenceWork() {
  constexpr std::uint32_t kSets = 1024;
  constexpr std::uint32_t kWays = 8;
  constexpr int kAccesses = 400'000;
  std::vector<std::array<std::uint64_t, kWays>> tags(kSets);
  std::vector<std::array<std::uint8_t, kWays>> ranks(kSets);
  for (auto& r : ranks) {
    for (std::uint8_t w = 0; w < kWays; ++w) {
      r[w] = w;
    }
  }
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      events;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t hits = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < kAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Mostly near the previous lines, sometimes far: a mix of hits and
    // misses.
    const std::uint64_t line = (x & 7) != 0 ? (x >> 40) & 0x3FFF : x >> 20;
    const std::uint32_t set = static_cast<std::uint32_t>(line % kSets);
    auto& t = tags[set];
    auto& r = ranks[set];
    std::uint32_t way = kWays;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (t[w] == line + 1) {
        way = w;
        break;
      }
    }
    if (way == kWays) {
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (r[w] == kWays - 1) {
          way = w;
        }
      }
      t[way] = line + 1;
      events.push(now + 100 + (x & 63));
    } else {
      ++hits;
    }
    const std::uint8_t old = r[way];
    for (std::uint32_t w = 0; w < kWays; ++w) {
      r[w] = static_cast<std::uint8_t>(r[w] + (r[w] < old ? 1 : 0));
    }
    r[way] = 0;
    ++now;
    while (!events.empty() && events.top() <= now) {
      events.pop();
    }
  }
  return hits + events.size();
}

}  // namespace

double timeHostReference() {
  const auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = referenceWork();
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
