#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples.
std::size_t nearestRank(std::size_t n, double p) {
  // The epsilon keeps 99.9 / 100 * 10000 = 9990.000000000002 at 9990.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t k = nearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

double tailPercentileFor(std::size_t n, std::size_t minBeyond) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samplesBeyond(n, p) >= minBeyond) {
      return p;
    }
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tailP = tailPercentileFor(s.n);
  s.tail = s.tailP > 0.0 ? percentile(samples, s.tailP) : 0.0;
  return s;
}

}  // namespace perfbench
