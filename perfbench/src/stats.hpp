#pragma once

// Sample summaries the benchmark reports: nearest-rank percentiles and the
// rule for which tail percentile a sample supports.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for an
/// empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Number of samples ranked above the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double p);

/// The highest of the reported percentiles {99.9, 99, 90, 50} that leaves
/// at least `minBeyond` samples above it; 0 when even the median does not.
[[nodiscard]] double tailPercentileFor(std::size_t n,
                                       std::size_t minBeyond = 10);

/// Median plus the highest supported tail percentile of one sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tailP = 0.0;  ///< which percentile `tail` is (0 = none supported)
  double tail = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
