#pragma once

// Windowed time-series sampler over simulated time — the generic machinery
// behind every per-window metric the observability layer records, and
// behind the paper's 5 us LLC-miss sampler (a counter series whose window
// sums become RunProfile::missWindows).
//
// Simulated time is bucketed into fixed windows of `windowCycles`; each
// record() lands in window `time / windowCycles`. Two metric kinds:
//  - kCounter: the window's value is the *sum* of the samples recorded in
//    it (e.g. requests per window, busy cycles per window). Empty windows
//    are zero.
//  - kGauge: the window's value is the *mean* of the samples recorded in
//    it (e.g. queue depth observed at each arrival). Empty windows carry
//    the last observed mean forward — a gauge keeps its level between
//    observations; windows before the first sample are zero.
//
// Sums are kept in double, which is exact for integer totals up to 2^53,
// so per-window miss counts past 2^32 stay exact.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace occm::obs {

enum class MetricKind : std::uint8_t {
  kCounter,  ///< per-window sum
  kGauge,    ///< per-window mean, carried forward over empty windows
};

class TimeSeries {
 public:
  /// `windowCycles`: bucket width in simulated cycles; must be positive.
  explicit TimeSeries(Cycles windowCycles,
                      MetricKind kind = MetricKind::kCounter);

  void record(Cycles time, double value = 1.0);

  /// Extends the series to cover [0, endTime) with empty trailing windows.
  /// Never shrinks.
  void finalize(Cycles endTime);

  [[nodiscard]] Cycles windowCycles() const noexcept { return window_; }
  [[nodiscard]] MetricKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t windowCount() const noexcept {
    return sums_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return sums_.empty(); }

  /// Start time (cycles) of window `i`.
  [[nodiscard]] Cycles windowStart(std::size_t i) const noexcept {
    return static_cast<Cycles>(i) * window_;
  }

  /// Raw sum of samples in window `i`.
  [[nodiscard]] double sum(std::size_t i) const;
  /// Number of samples recorded in window `i`.
  [[nodiscard]] std::uint64_t samples(std::size_t i) const;

  /// The window's metric value under this series' kind (see header note).
  [[nodiscard]] double value(std::size_t i) const;

  /// All window values, kind semantics applied (gauge carry-forward).
  [[nodiscard]] std::vector<double> values() const;

  /// Total of all recorded samples (counter grand total).
  [[nodiscard]] double total() const noexcept;

 private:
  Cycles window_;
  MetricKind kind_;
  std::vector<double> sums_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace occm::obs
