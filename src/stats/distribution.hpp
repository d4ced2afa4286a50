#pragma once

// Empirical distributions: complementary CDFs and heavy-tail
// diagnostics. Figure 4 of the paper plots P(BurstSize > x) on log-log
// axes and classifies traffic as bursty when the tail is a straight
// decreasing diagonal (power law); these are the tools behind that plot.

#include <cstddef>
#include <span>
#include <vector>

namespace occm::stats {

/// One point of an empirical complementary CDF: P(X > x).
struct CcdfPoint {
  double x = 0.0;
  double probability = 0.0;
};

/// Builds the empirical CCDF of the samples: for each distinct value x,
/// P(X > x) = #{samples > x} / n. Zero-probability trailing point (the
/// maximum) is included with probability 0 so plots terminate.
[[nodiscard]] std::vector<CcdfPoint> empiricalCcdf(
    std::span<const double> samples);

/// CCDF over integer burst sizes, evaluated at the paper's log-spaced grid
/// (1, 2, 5, 10, 20, 50, ...), convenient for printing Figure 4 rows.
[[nodiscard]] std::vector<CcdfPoint> ccdfAt(std::span<const double> samples,
                                            std::span<const double> grid);

/// Result of fitting log10 P(X > x) = a + b * log10 x over x >= xmin.
struct TailFit {
  /// Log-log slope b (negative; a straight diagonal indicates power law).
  double slope = 0.0;
  double intercept = 0.0;
  /// R^2 of the log-log fit: near 1 means the tail is a clean diagonal.
  double r2 = 0.0;
  /// Number of CCDF points used.
  std::size_t points = 0;
};

/// Fits the log-log tail of a CCDF for x >= xmin, skipping zero-probability
/// points. Requires at least 3 usable points; returns points == 0 otherwise.
[[nodiscard]] TailFit fitLogLogTail(std::span<const CcdfPoint> ccdf,
                                    double xmin);

/// Hill estimator of the tail index alpha over the k largest samples.
/// Larger alpha = lighter tail. Returns 0 when k < 2 or data degenerate.
[[nodiscard]] double hillTailIndex(std::span<const double> samples,
                                   std::size_t k);

}  // namespace occm::stats
