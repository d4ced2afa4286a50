#include "core/contention_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "stats/summary.hpp"

namespace occm::model {

namespace {

/// "1, 4, 5" — the distinct core counts present, for diagnostics.
std::string coresPresent(std::span<const MeasuredPoint> points) {
  std::set<int> cores;
  for (const MeasuredPoint& p : points) {
    cores.insert(p.cores);
  }
  std::string out;
  for (int c : cores) {
    if (!out.empty()) {
      out += ", ";
    }
    out += std::to_string(c);
  }
  return out.empty() ? "none" : out;
}

}  // namespace

double degreeOfContention(double cyclesN, double cycles1) {
  OCCM_REQUIRE_MSG(cycles1 > 0.0, "C(1) must be positive");
  return (cyclesN - cycles1) / cycles1;
}

MachineShape shapeOf(const topology::MachineSpec& spec) {
  MachineShape shape;
  shape.coresPerProcessor = spec.logicalCoresPerSocket();
  shape.processors = spec.sockets;
  shape.architecture = spec.memoryArchitecture;
  return shape;
}

std::vector<int> defaultFitCores(const MachineShape& shape) {
  const int k = shape.coresPerProcessor;
  std::vector<int> cores{1};
  if (shape.architecture == topology::MemoryArchitecture::kNuma && k > 2) {
    cores.push_back(2);
  }
  if (k > 1) {
    cores.push_back(k);
  }
  for (int p = 1; p < shape.processors; ++p) {
    // First boundary for every arch; later boundaries only for NUMA with
    // potentially heterogeneous interconnects (the paper's AMD protocol).
    if (p == 1 ||
        shape.architecture == topology::MemoryArchitecture::kNuma) {
      cores.push_back(p * k + 1);
    }
  }
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
  return cores;
}

Expected<SingleProcessorModel, FitError> SingleProcessorModel::tryFit(
    std::span<const MeasuredPoint> points) {
  if (points.size() < 2) {
    return makeUnexpected(FitError{
        FitErrorKind::kTooFewPoints,
        "needs >= 2 measurements, got " + std::to_string(points.size()),
        0});
  }
  std::vector<stats::Point> inv;
  inv.reserve(points.size());
  std::set<int> distinct;
  for (const MeasuredPoint& p : points) {
    if (p.cores < 1) {
      return makeUnexpected(FitError{
          FitErrorKind::kInvalidCoreCount,
          "core count " + std::to_string(p.cores) + " is < 1", p.cores});
    }
    if (!(p.totalCycles > 0.0) || !std::isfinite(p.totalCycles)) {
      return makeUnexpected(FitError{
          FitErrorKind::kNonPositiveCycles,
          "measurement at n = " + std::to_string(p.cores) + " reports " +
              std::to_string(p.totalCycles) +
              " cycles (failed or empty run?)",
          p.cores});
    }
    distinct.insert(p.cores);
    inv.push_back({static_cast<double>(p.cores), 1.0 / p.totalCycles});
  }
  if (distinct.size() < 2) {
    return makeUnexpected(FitError{
        FitErrorKind::kDuplicateCores,
        "all " + std::to_string(points.size()) +
            " measurements share core count " + coresPresent(points) +
            "; the 1/C(n) line needs two distinct n",
        *distinct.begin()});
  }
  SingleProcessorModel model;
  model.fit_ = stats::fitLinear(inv);
  // Saturation diagnosis: the open M/M/1 queue requires mu > n L across
  // the measured range; a non-positive intercept (mu/r <= 0) or a fitted
  // 1/C that crosses zero inside the data means the regime is saturated
  // and the model's predictions would be garbage.
  if (!(model.fit_.intercept > 0.0)) {
    return makeUnexpected(FitError{
        FitErrorKind::kSaturated,
        "fitted mu/r = " + std::to_string(model.fit_.intercept) +
            " is not positive",
        0});
  }
  for (const MeasuredPoint& p : points) {
    if (model.fit_.predict(static_cast<double>(p.cores)) <= 0.0) {
      return makeUnexpected(FitError{
          FitErrorKind::kSaturated,
          "fitted mu <= n L already at measured n = " +
              std::to_string(p.cores) + " (queue saturated in-range)",
          p.cores});
    }
  }
  return model;
}

double SingleProcessorModel::predict(double cores) const {
  OCCM_REQUIRE_MSG(cores >= 1.0, "core count must be >= 1");
  const double inv = fit_.predict(cores);
  // Clamp near/past saturation so the open-queue model stays finite.
  const double floor = kSaturationFloor * fit_.intercept;
  return 1.0 / std::max(inv, floor);
}

double SingleProcessorModel::saturationCores() const {
  if (fit_.slope >= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return fit_.intercept / -fit_.slope;
}

double colinearityR2(std::span<const MeasuredPoint> points) {
  OCCM_REQUIRE_MSG(points.size() >= 2, "R^2 needs >= 2 points");
  std::vector<stats::Point> inv;
  inv.reserve(points.size());
  for (const MeasuredPoint& p : points) {
    OCCM_REQUIRE_MSG(p.totalCycles > 0.0, "cycles must be positive");
    inv.push_back({static_cast<double>(p.cores), 1.0 / p.totalCycles});
  }
  return stats::fitLinear(inv).r2;
}

Expected<ContentionModel, FitError> ContentionModel::tryFit(
    const MachineShape& shape, std::span<const MeasuredPoint> points) {
  return tryFit(shape, points, Options{});
}

Expected<ContentionModel, FitError> ContentionModel::tryFit(
    const MachineShape& shape, std::span<const MeasuredPoint> points,
    const Options& options) {
  if (shape.coresPerProcessor < 1 || shape.processors < 1) {
    return makeUnexpected(FitError{
        FitErrorKind::kInvalidShape,
        "machine shape " + std::to_string(shape.coresPerProcessor) +
            " cores/processor x " + std::to_string(shape.processors) +
            " processors has a non-positive dimension",
        0});
  }
  const int k = shape.coresPerProcessor;

  ContentionModel model;
  model.shape_ = shape;

  // Partition the measurements.
  std::vector<MeasuredPoint> first;
  for (const MeasuredPoint& p : points) {
    if (p.cores < 1 || p.cores > shape.totalCores()) {
      return makeUnexpected(FitError{
          FitErrorKind::kInvalidCoreCount,
          "measured point at n = " + std::to_string(p.cores) +
              " is outside the machine (1.." +
              std::to_string(shape.totalCores()) + ")",
          p.cores});
    }
    if (p.cores <= k) {
      first.push_back(p);
    }
    if (p.cores == 1 && p.totalCycles > 0.0) {
      model.c1_ = p.totalCycles;
    }
  }
  if (!(model.c1_ > 0.0)) {
    return makeUnexpected(FitError{
        FitErrorKind::kMissingC1,
        "no usable measurement at n = 1 to anchor omega; core counts "
        "present: " + coresPresent(points),
        1});
  }
  auto single = SingleProcessorModel::tryFit(first);
  if (!single) {
    FitError error = single.error();
    error.message = "single-processor stage (n <= " + std::to_string(k) +
                    "): " + error.message;
    return makeUnexpected(std::move(error));
  }
  model.single_ = *single;

  // One slope per additional processor, from the first measured point
  // beyond that processor's boundary.
  //  - NUMA: the remote-access term rho (eq. 10 load split).
  //  - UMA: the per-extra-core bus correction DeltaC on top of the
  //    machine-wide shared-controller queue.
  model.slopes_.assign(static_cast<std::size_t>(shape.processors - 1), 0.0);
  const bool uma = shape.architecture == topology::MemoryArchitecture::kUma;
  for (int p = 1; p < shape.processors; ++p) {
    const int boundary = p * k;
    // First measured point in (boundary, boundary + k].
    const MeasuredPoint* chosen = nullptr;
    for (const MeasuredPoint& m : points) {
      if (m.cores > boundary && m.cores <= boundary + k &&
          (chosen == nullptr || m.cores < chosen->cores)) {
        chosen = &m;
      }
    }
    double slope = 0.0;
    if (options.homogeneousRemote && p > 1) {
      slope = model.slopes_[0];
    } else if (chosen != nullptr) {
      if (uma) {
        // Eq. 8 (shared controller): the single-queue curve spans the
        // machine; delta is the bus correction per extra core.
        slope = (chosen->totalCycles -
                 model.single_.predict(chosen->cores)) /
                static_cast<double>(chosen->cores - boundary);
      } else {
        // Eq. 10: C_meas = C_s(n/m) + rho_r * n * (m-1)/m, m = p+1 active
        // processors at the chosen point.
        const double n = static_cast<double>(chosen->cores);
        const double m = static_cast<double>(p + 1);
        const double remote = n * (m - 1.0) / m;
        slope =
            (chosen->totalCycles - model.single_.predict(n / m)) / remote;
      }
    } else if (p > 1) {
      // Reuse the previous processor's slope rather than failing.
      slope = model.slopes_[static_cast<std::size_t>(p - 2)];
    } else {
      return makeUnexpected(FitError{
          FitErrorKind::kMissingBoundary,
          "no measurement in (" + std::to_string(boundary) + ", " +
              std::to_string(boundary + k) +
              "] to fit the first remote slope; core counts present: " +
              coresPresent(points),
          boundary + 1});
    }
    model.slopes_[static_cast<std::size_t>(p - 1)] = slope;
  }
  return model;
}

double ContentionModel::predictCycles(int cores) const {
  OCCM_REQUIRE_MSG(cores >= 1 && cores <= shape_.totalCores(),
                   "core count outside the machine");
  const int k = shape_.coresPerProcessor;
  if (cores <= k) {
    return single_.predict(cores);
  }
  const int p = (cores - 1) / k;  // processor index of the last core
  if (shape_.architecture == topology::MemoryArchitecture::kUma) {
    // Eq. 8 (shared controller): machine-wide single queue plus the bus
    // correction for the cores beyond the first processor.
    double correction = 0.0;
    for (int q = 1; q <= p; ++q) {
      const int coresBeyond = std::min(cores - q * k, k);
      correction += slopes_[static_cast<std::size_t>(q - 1)] *
                    static_cast<double>(coresBeyond);
    }
    return single_.predict(cores) + correction;
  }
  // Eq. 10: per-controller load n/m plus the remote-request penalty.
  const double n = static_cast<double>(cores);
  const double m = static_cast<double>(p + 1);
  return single_.predict(n / m) +
         slopes_[static_cast<std::size_t>(p - 1)] * n * (m - 1.0) / m;
}

double ContentionModel::predictOmega(int cores) const {
  return degreeOfContention(predictCycles(cores), c1_);
}

ValidationReport validate(const ContentionModel& model,
                          std::span<const MeasuredPoint> measured) {
  OCCM_REQUIRE_MSG(!measured.empty(), "nothing to validate against");
  double c1 = model.measuredC1();
  for (const MeasuredPoint& p : measured) {
    if (p.cores == 1 && p.totalCycles > 0.0) {
      c1 = p.totalCycles;
    }
  }
  ValidationReport report;
  std::vector<double> meas;
  std::vector<double> pred;
  for (const MeasuredPoint& p : measured) {
    ValidationRow row;
    row.cores = p.cores;
    row.measuredCycles = p.totalCycles;
    row.predictedCycles = model.predictCycles(p.cores);
    row.predictedOmega = degreeOfContention(row.predictedCycles, c1);
    // A failed/empty run recorded as <= 0 cycles would turn the error and
    // omega columns into inf/NaN and poison the mean; flag it instead.
    if (p.totalCycles > 0.0 && std::isfinite(p.totalCycles)) {
      row.measuredOmega = degreeOfContention(p.totalCycles, c1);
      row.relativeError = std::abs(row.predictedCycles - row.measuredCycles) /
                          row.measuredCycles;
      meas.push_back(row.measuredCycles);
      pred.push_back(row.predictedCycles);
    } else {
      row.degenerate = true;
      ++report.degenerateRows;
    }
    report.rows.push_back(row);
  }
  report.meanRelativeError =
      meas.empty() ? 0.0 : stats::meanRelativeError(meas, pred);
  return report;
}

}  // namespace occm::model
