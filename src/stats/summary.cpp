#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace occm::stats {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::cv() const noexcept {
  return mean_ == 0.0 ? 0.0 : stddev() / mean_;
}

double meanRelativeError(std::span<const double> measured,
                         std::span<const double> predicted) {
  OCCM_REQUIRE(measured.size() == predicted.size());
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (measured[i] == 0.0) {
      continue;
    }
    total += std::abs(predicted[i] - measured[i]) / std::abs(measured[i]);
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace occm::stats
