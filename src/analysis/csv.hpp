#pragma once

// CSV export of sweep results and figure data, so the bench harnesses'
// tables can be re-plotted (gnuplot/matplotlib) without re-running the
// experiments.

#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/burstiness.hpp"
#include "core/contention_model.hpp"
#include "obs/metric_registry.hpp"

namespace occm::analysis {

/// Escapes and joins one CSV row.
[[nodiscard]] std::string csvRow(const std::vector<std::string>& cells);

/// Sweep -> CSV: one row per core count with the Figure-3 quantities
/// (total/stall/work cycles, LLC misses, coherence misses, omega).
[[nodiscard]] std::string sweepToCsv(const SweepResult& sweep);

/// Validation report -> CSV: cores, measured/predicted cycles and omega,
/// relative error (the Figure-5/6 series).
[[nodiscard]] std::string validationToCsv(const model::ValidationReport& report);

/// Burstiness CCDF -> CSV: x, P(BurstSize > x) (the Figure-4 series).
[[nodiscard]] std::string ccdfToCsv(const model::BurstinessReport& report);

/// Metric registry -> tidy ("long") CSV time series: one row per
/// (window, metric) with the window's start in cycles and nanoseconds
/// (at `clockGhz`), the metric name/unit and the windowed value. Tidy
/// layout keeps the export schema stable as metrics come and go.
[[nodiscard]] std::string metricsToCsv(const obs::MetricRegistry& metrics,
                                       double clockGhz);

/// Sweep failure records -> CSV: one row per RunFailure with its
/// lifecycle kind (exception/timeout/cancelled), so aborted runs are
/// visible in the same export pipeline as the completed ones.
[[nodiscard]] std::string failuresToCsv(const SweepResult& sweep);

/// End-of-sweep ThreadPool telemetry -> tidy CSV: one (scope, metric,
/// value) row per statistic — pool-wide rows (scope "pool": submitted,
/// submit_block_ns, max_queue_depth) then per-worker rows (scope
/// "worker0"...: tasks, busy_ns, queue_wait_ns). Header-only when the
/// sweep ran serially or the observability layer is compiled out. Values
/// are host-time: do not fingerprint them.
[[nodiscard]] std::string poolStatsToCsv(const exec::ThreadPoolStats& stats);

/// Writes text to a file; throws ContractViolation on I/O failure.
void writeFile(const std::string& path, const std::string& contents);

}  // namespace occm::analysis
