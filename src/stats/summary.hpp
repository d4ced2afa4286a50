#pragma once

// Streaming summary statistics (Welford) and the model's error metric.

#include <cstdint>
#include <span>

namespace occm::stats {

/// Numerically stable streaming mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Coefficient of variation (stddev / mean); 0 for zero mean.
  [[nodiscard]] double cv() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean absolute relative error between model predictions and measurements,
/// the accuracy metric the paper reports (5-14 %). Entries where the
/// measured value is zero are skipped.
[[nodiscard]] double meanRelativeError(std::span<const double> measured,
                                       std::span<const double> predicted);

}  // namespace occm::stats
