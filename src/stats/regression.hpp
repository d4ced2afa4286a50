#pragma once

// Ordinary least-squares simple linear regression, the parameter-estimation
// tool the paper uses everywhere: mu and L come from the linearity of
// 1/C(n) in n (eq. 6), DeltaC and rho from the multi-socket points
// (eqs. 8, 10), and Table IV reports the colinearity R^2.

#include <span>

namespace occm::stats {

/// One observation (x, y).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Result of fitting y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1] (1 = perfect colinearity).
  double r2 = 0.0;
  std::size_t n = 0;

  [[nodiscard]] double predict(double x) const noexcept {
    return intercept + slope * x;
  }
};

/// Fits y = a + b*x by least squares. Requires >= 2 points with at least
/// two distinct x values; throws ContractViolation otherwise.
[[nodiscard]] LinearFit fitLinear(std::span<const Point> points);

}  // namespace occm::stats
