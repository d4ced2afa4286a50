#pragma once

// Fit-from-few-points advisor glue: measure only the contention model's
// regression inputs (the paper's 3-5 point protocol) and fit a
// ContentionModel from them. Extracted from examples/capacity_advisor so
// the CLI and the serve-tier advisor server share one implementation —
// both the warm-cache fill of the service and the one-shot example go
// through fitAdvisorModel.

#include <functional>

#include "common/cancellation.hpp"
#include "core/contention_model.hpp"
#include "sim/machine_sim.hpp"
#include "topology/machine_spec.hpp"
#include "workloads/workload.hpp"

namespace occm::analysis {

struct AdvisorFitConfig {
  topology::MachineSpec machine;
  workloads::WorkloadSpec workload;  ///< threads <= 0 => machine cores
  sim::SimConfig sim;
  /// Attempts per measured core count (failed runs retry seed-perturbed).
  int maxAttempts = 2;
  /// Sweep pool size; 0 resolves via OCCM_SWEEP_WORKERS / hardware.
  int workers = 0;
  /// Cooperative cancellation, polled at the simulator's event-loop
  /// boundary of every measurement run. A cancelled fit comes back as a
  /// FitError (kTooFewPoints, "fit sweep cancelled") — never a throw.
  CancellationToken cancel;
  /// Test/diagnostics hook forwarded to SweepConfig::beforeRun.
  std::function<void(int cores, int attempt)> beforeRun;
};

/// A fitted advisor model plus the provenance a caller reports.
struct AdvisorModel {
  model::ContentionModel model;
  model::MachineShape shape;
  std::vector<int> fitCores;  ///< the regression-input core counts
  std::size_t measuredRuns = 0;
};

/// Runs the defaultFitCores measurements for the machine shape and fits
/// the contention model from them. Every failure mode — a measurement run
/// that fails permanently, a cancelled sweep, degenerate points — comes
/// back as a typed FitError; no exception escapes for bad measurements.
[[nodiscard]] Expected<AdvisorModel, model::FitError> fitAdvisorModel(
    const AdvisorFitConfig& config);

}  // namespace occm::analysis
