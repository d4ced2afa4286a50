#pragma once

// CSV export of sweep results and windowed metric series, so sweeps and
// traces can be re-plotted (gnuplot/matplotlib) without re-running the
// experiments.

#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/contention_model.hpp"
#include "obs/metric_registry.hpp"

namespace occm::analysis {

/// Escapes and joins one CSV row.
[[nodiscard]] std::string csvRow(const std::vector<std::string>& cells);

/// Sweep -> CSV: one row per core count with the Figure-3 quantities
/// (total/stall/work cycles, LLC misses, coherence misses, omega).
[[nodiscard]] std::string sweepToCsv(const SweepResult& sweep);

/// Metric registry -> tidy ("long") CSV time series: one row per
/// (window, metric) with the window's start in cycles and nanoseconds
/// (at `clockGhz`), the metric name/unit and the windowed value. Tidy
/// layout keeps the export schema stable as metrics come and go.
[[nodiscard]] std::string metricsToCsv(const obs::MetricRegistry& metrics,
                                       double clockGhz);

/// Writes text to a file; throws ContractViolation on I/O failure.
void writeFile(const std::string& path, const std::string& contents);

}  // namespace occm::analysis
