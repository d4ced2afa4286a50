#pragma once

// The observability payload of one simulated run: a metric registry of
// windowed time series plus a structured event trace, attached to
// perf::RunProfile when tracing is requested.
//
// Zero-cost when off: compile with OCCM_OBS_ENABLED=0 (CMake option
// OCCM_ENABLE_OBS=OFF) and every instrumentation site folds to a
// constant-false branch the optimizer deletes; with tracing compiled in
// but disabled at runtime (the default ObsConfig), the hot path pays one
// predictable null-pointer test per hook.
//
// Thread safety: a RunTrace is built inside MachineSim::run and written
// only by that run — metric registries and trace sinks are per-task
// sinks, never shared across concurrent simulations. Parallel sweeps
// therefore need no locking here: each task's trace rides back on its
// RunProfile and is "merged" simply by the deterministic result order.

#include <cstddef>
#include <memory>

#include "common/types.hpp"
#include "obs/metric_registry.hpp"
#include "obs/trace_sink.hpp"

#ifndef OCCM_OBS_ENABLED
#define OCCM_OBS_ENABLED 1
#endif

namespace occm::obs {

/// Compile-time switch; instrumentation guards with `if constexpr`.
inline constexpr bool kCompiledIn = OCCM_OBS_ENABLED != 0;

/// Per-run observability request (part of sim::SimConfig).
struct ObsConfig {
  /// Record windowed metrics (controller utilization/queueing, per-core
  /// work/stall split, machine-wide LLC-miss rate).
  bool metrics = false;
  /// Record structured trace events (controller service spans, core memory
  /// stalls, context switches, pinning).
  bool trace = false;
  /// Metric window width in simulated nanoseconds (paper's sampler: 5 us).
  double windowNs = 5000.0;
  /// Event-ring capacity (see TraceSink: overflow drops the oldest).
  std::size_t traceCapacity = 1 << 16;

  [[nodiscard]] bool enabled() const noexcept {
    return kCompiledIn && (metrics || trace);
  }
};

struct RunTrace {
  RunTrace(Cycles windowCycles, std::size_t traceCapacity, double ghz)
      : metrics(windowCycles), events(traceCapacity), clockGhz(ghz) {}

  MetricRegistry metrics;
  TraceSink events;
  /// Simulated clock, for converting cycles to wall-clock in exports.
  double clockGhz = 1.0;
};

using RunTracePtr = std::shared_ptr<RunTrace>;

}  // namespace occm::obs
