#pragma once

// Typed diagnoses for degenerate model-fit input. The paper's M/M/1 fit
// C(n) = r / (mu - n L) silently produces garbage (or diverges) on inputs
// a production sweep can easily hand it: a saturated regime (mu <= n L), a
// failed run reporting zero cycles, duplicate core counts, or too few
// surviving points after failure isolation. tryFit, the one way to fit
// the model, returns Expected<Model, FitError> so callers can record the
// diagnosis and keep the rest of the sweep alive.

#include <cstdint>
#include <string>

namespace occm::model {

enum class FitErrorKind : std::uint8_t {
  kTooFewPoints,      ///< fewer than 2 usable measurements
  kDuplicateCores,    ///< fewer than 2 distinct core counts
  kInvalidCoreCount,  ///< a point's core count is < 1 or outside the machine
  kNonPositiveCycles, ///< a point's cycles are <= 0 or non-finite
  kSaturated,         ///< fitted mu <= n L within the measured range
  kMissingC1,         ///< no measurement at n = 1 to anchor omega
  kMissingBoundary,   ///< no point beyond the first processor boundary
  kInvalidShape,      ///< machine shape with non-positive dimensions
};

[[nodiscard]] constexpr const char* toString(FitErrorKind kind) noexcept {
  switch (kind) {
    case FitErrorKind::kTooFewPoints: return "too-few-points";
    case FitErrorKind::kDuplicateCores: return "duplicate-cores";
    case FitErrorKind::kInvalidCoreCount: return "invalid-core-count";
    case FitErrorKind::kNonPositiveCycles: return "non-positive-cycles";
    case FitErrorKind::kSaturated: return "saturated";
    case FitErrorKind::kMissingC1: return "missing-c1";
    case FitErrorKind::kMissingBoundary: return "missing-boundary";
    case FitErrorKind::kInvalidShape: return "invalid-shape";
  }
  return "unknown";
}

struct FitError {
  FitErrorKind kind = FitErrorKind::kTooFewPoints;
  /// Human-readable diagnosis (offending values, counts present, ...).
  std::string message;
  /// Core count the diagnosis refers to; 0 when not point-specific.
  int cores = 0;

  [[nodiscard]] std::string describe() const {
    return std::string(toString(kind)) + ": " + message;
  }
};

}  // namespace occm::model
