#pragma once

// The paper's contribution (section IV): an analytical queueing model that
// relates off-chip memory contention to the number of active cores and
// the problem size, for UMA and NUMA multiprocessors.
//
//  - Within one processor the memory controller is an M/M/1 queue, so the
//    total cycles are C(n) = r(n) / (mu - n L)   (eq. 6) and 1/C(n) is
//    linear in n; mu and L come from linear regression on a handful of
//    measured runs.
//  - UMA multiprocessor (eq. 8): all cores queue at the one shared
//    controller, so the M/M/1 curve spans the whole machine; activating
//    the second processor adds its own front-side bus, captured by the
//    per-extra-core correction DeltaC fit from the first measurement
//    beyond one processor:  C(n > k) = C_s(n) + delta * (n - k).
//  - NUMA multiprocessor (eq. 10): with m processors active, memory is
//    spread over their controllers, so each controller queues n/m cores'
//    worth of demand and a (m-1)/m fraction of requests pays the remote
//    penalty rho per request:
//        C(n) = C_s(n/m) + rho_r * n * (m-1)/m
//    where C_s is the fitted single-processor curve. This reproduces the
//    measured sharp contention drop when a new controller comes online.
//    Fitting one rho per processor boundary captures heterogeneous hop
//    distances (the paper's five-point AMD fit); the homogeneous-rho
//    variant reuses the first slope everywhere (the three-point fit the
//    paper reports as ~25 % error on AMD). The literal eq. 11 form
//    C(n) = C(c) + r rho (n-c) has no load relief, so it cannot produce
//    that drop and is not modelled (DESIGN.md section 6).
//  - Every parameter comes from ordinary least squares, the paper's only
//    estimator; tryFit is the one entry point and reports degenerate
//    input as a typed FitError.
//  - Degree of memory contention (Definition 1):
//    omega(n) = (C(n) - C(1)) / C(1).

#include <span>
#include <vector>

#include "common/expected.hpp"
#include "core/fit_error.hpp"
#include "stats/regression.hpp"
#include "topology/machine_spec.hpp"

namespace occm::model {

/// One measured run: total cycles across all active cores.
struct MeasuredPoint {
  int cores = 0;
  double totalCycles = 0.0;
};

/// omega(n) per Definition 1. Negative values = positive cache effects.
/// Throws ContractViolation when C(1) is non-positive.
[[nodiscard]] double degreeOfContention(double cyclesN, double cycles1);

/// The machine abstraction the model needs: processors of equal core
/// count filled one at a time.
struct MachineShape {
  int coresPerProcessor = 1;
  int processors = 1;
  topology::MemoryArchitecture architecture =
      topology::MemoryArchitecture::kUma;

  [[nodiscard]] int totalCores() const noexcept {
    return coresPerProcessor * processors;
  }
};

/// Derives the model-facing shape from a full machine spec.
[[nodiscard]] MachineShape shapeOf(const topology::MachineSpec& spec);

/// The paper's regression-input core counts for a machine shape:
/// UMA {1, k, k+1}; NUMA {1, 2, k, k+1} plus {p*k+1} for each additional
/// processor (heterogeneous interconnect). Matches the paper's choices:
/// {1,4,5} on Intel UMA, {1,2,12,13} on Intel NUMA, {1,12,13,25,37} on AMD.
[[nodiscard]] std::vector<int> defaultFitCores(const MachineShape& shape);

/// Single-processor M/M/1 model: C(n) = r / (mu - n L), fit from the
/// linearity of 1/C(n) in n.
class SingleProcessorModel {
 public:
  /// Least-squares fit of 1/C(n) on n from >= 2 points with distinct core
  /// counts. Degenerate input (too few points, duplicate or invalid core
  /// counts, non-positive/non-finite cycles, a fitted queue already
  /// saturated — mu <= n L — inside the measured range) comes back as a
  /// typed FitError.
  [[nodiscard]] static Expected<SingleProcessorModel, FitError> tryFit(
      std::span<const MeasuredPoint> points);

  /// Predicted C(n). Beyond the fitted saturation point the open queue
  /// diverges; predictions are clamped at kSaturationFloor of the
  /// intercept to keep them finite (documented deviation). Fractional
  /// core counts arise from the multi-controller load split (eq. 10).
  [[nodiscard]] double predict(double cores) const;

  /// mu / r and L / r (the regression intercept and negated slope).
  [[nodiscard]] double muOverR() const noexcept { return fit_.intercept; }
  [[nodiscard]] double lOverR() const noexcept { return -fit_.slope; }

  /// Core count at which the fitted queue saturates (mu = n L);
  /// +infinity when the fitted slope is non-negative (no contention).
  [[nodiscard]] double saturationCores() const;

  [[nodiscard]] const stats::LinearFit& fitInfo() const noexcept {
    return fit_;
  }

 private:
  static constexpr double kSaturationFloor = 0.02;
  stats::LinearFit fit_;  ///< 1/C(n) = intercept + slope * n
};

/// Colinearity goodness-of-fit R^2 of 1/C(n) vs n (Table IV).
[[nodiscard]] double colinearityR2(std::span<const MeasuredPoint> points);

/// The full hierarchical model.
class ContentionModel {
 public:
  struct Options {
    /// Reuse the first remote slope for every remote processor (the
    /// paper's three-point homogeneous-interconnect variant).
    bool homogeneousRemote = false;
  };

  /// Fits from measured points. Requirements: >= 2 points within the
  /// first processor (including n = 1); for each additional processor
  /// that should be modelled, at least one point just beyond its
  /// boundary (unless homogeneousRemote reuses the first boundary
  /// slope). Points are matched by the fill-processor-first policy.
  /// Every precondition failure (invalid shape, points outside the
  /// machine, missing n = 1 anchor, missing boundary point, degenerate
  /// single-processor input, saturated regime) comes back as a typed
  /// FitError naming the offending core counts, so a sweep harness can
  /// log the diagnosis and keep the surviving runs.
  [[nodiscard]] static Expected<ContentionModel, FitError> tryFit(
      const MachineShape& shape, std::span<const MeasuredPoint> points,
      const Options& options);

  /// Overload with default options.
  [[nodiscard]] static Expected<ContentionModel, FitError> tryFit(
      const MachineShape& shape, std::span<const MeasuredPoint> points);

  /// Predicted total cycles C(n), 1 <= n <= shape.totalCores().
  [[nodiscard]] double predictCycles(int cores) const;

  /// Predicted omega(n), normalized by the measured C(1).
  [[nodiscard]] double predictOmega(int cores) const;

  [[nodiscard]] const MachineShape& shape() const noexcept { return shape_; }
  [[nodiscard]] const SingleProcessorModel& singleProcessor() const noexcept {
    return single_;
  }
  /// Remote slope (cycles per additional core) for processor p >= 1;
  /// for UMA this is the per-core DeltaC term.
  [[nodiscard]] std::span<const double> remoteSlopes() const noexcept {
    return slopes_;
  }
  [[nodiscard]] double measuredC1() const noexcept { return c1_; }

 private:
  MachineShape shape_;
  SingleProcessorModel single_;
  std::vector<double> slopes_;
  double c1_ = 0.0;
};

/// Model-vs-measurement comparison for one core count.
struct ValidationRow {
  int cores = 0;
  double measuredCycles = 0.0;
  double predictedCycles = 0.0;
  double measuredOmega = 0.0;
  double predictedOmega = 0.0;
  double relativeError = 0.0;  ///< |pred - meas| / meas (cycles)
  /// True when measuredCycles <= 0 (a failed/empty run): the error and
  /// omega columns are forced to 0 instead of dividing to inf/NaN, and
  /// the row is excluded from meanRelativeError.
  bool degenerate = false;
};

struct ValidationReport {
  std::vector<ValidationRow> rows;
  double meanRelativeError = 0.0;
  std::size_t degenerateRows = 0;  ///< rows excluded from the mean
};

/// Validates a fitted model against a full measurement sweep.
[[nodiscard]] ValidationReport validate(
    const ContentionModel& model, std::span<const MeasuredPoint> measured);

}  // namespace occm::model
