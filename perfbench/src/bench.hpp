#pragma once

// The benchmark's workloads. Paper sweeps run analysis::runSweep serially
// on one (workload, machine, core counts) grid; the advisor workload
// drives an in-process serve::runAdvisorServer with an open-loop schedule.
// Both fill a RunResult; main.cpp prints it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "topology/machine_spec.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t workloadSeed = 2011;
  std::uint64_t arrivalSeed = 0;
  double seconds = 10.0;
  bool traced = false;
};

/// One grid the benchmark sweeps: fixed threads, varying active cores.
struct SweepCase {
  occm::topology::MachineSpec machine;
  occm::workloads::WorkloadSpec spec;  ///< threads = the machine's cores
  std::vector<int> coreCounts;         ///< ascending
  std::vector<int> fitCores;           ///< the model's regression inputs
};

/// The paper-sweep workloads by name; nullopt for any other name.
[[nodiscard]] std::optional<SweepCase> sweepCaseFor(const std::string& name,
                                                    std::uint64_t workloadSeed);

/// Untraced: times runSweep calls for `options.seconds` and fills the
/// end-to-end metrics. Traced: fills the per-layer metrics instead.
void runSweepWorkload(const SweepCase& sweep, const BenchOptions& options,
                      SpanRecorder& spans, RunResult& result);

/// The traced per-layer split of one sweep case: traced and untraced
/// sweeps alternated for `seconds`, the three replays at the largest core
/// count, and the model fit. `recordFingerprints` adds each sweep's CSV
/// fingerprint to the result (the sweep workloads pin them).
void measureSweepLayers(const SweepCase& sweep, double seconds,
                        bool recordFingerprints, SpanRecorder& spans,
                        RunResult& result);

void runAdvisorWorkload(const BenchOptions& options, SpanRecorder& spans,
                        RunResult& result);

/// The serve, exec and loadgen per-layer metrics, reported as 0 by the
/// workloads that never reach those layers.
void setServingLayersOffPath(RunResult& result);

}  // namespace perfbench
