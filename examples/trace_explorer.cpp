// Trace explorer: runs a workload at increasing active-core counts with
// the observability layer enabled and exports, per run,
//   - a Chrome trace_event JSON (open in https://ui.perfetto.dev or
//     chrome://tracing): controller service spans, per-core memory
//     stalls, context switches, plus every windowed metric as a counter
//     track, and
//   - a tidy CSV time series of the windowed metrics (controller
//     utilization / queueing / row-hit split, per-core work/stall,
//     machine-wide LLC-miss rate) for plotting.
//
// The stdout summary shows the paper's central observable from the
// metric side: per-controller utilization climbing toward saturation as
// cores activate.
//
// Usage: trace_explorer [program.class] [outdir] [cores,cores,...]
//        (defaults: CG.A, current directory, 1,6,12,18,24)

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/error.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"
#include "obs/chrome_trace.hpp"

namespace {

// Comma-separated active-core counts, each checked by coresArg (an
// empty item, as in "1,,6" or "6,", is rejected too).
std::vector<int> parseCores(const std::string& list,
                            const occm::topology::MachineSpec& machine) {
  std::vector<int> cores;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = list.find(',', pos);
    cores.push_back(
        occm::examples::coresArg(list.substr(pos, comma - pos), machine));
    if (comma == std::string::npos) {
      return cores;
    }
    pos = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace occm;

  const topology::MachineSpec machine = topology::intelNuma24();
  workloads::WorkloadSpec workload;
  workload.problemClass = workloads::ProblemClass::kA;
  std::string outdir = ".";
  std::vector<int> coreCounts = {1, 6, 12, 18, 24};
  if (argc > 1) {
    workload = examples::workloadArg(argv[1]);
  }
  if (argc > 2) {
    outdir = argv[2];
  }
  if (argc > 3) {
    coreCounts = parseCores(argv[3], machine);
  }

  const std::string name =
      workloads::workloadName(workload.program, workload.problemClass);
  std::printf("Tracing %s on %s ...\n", name.c_str(), machine.name.c_str());

  sim::SimConfig simConfig;
  simConfig.observability.metrics = true;
  simConfig.observability.trace = true;

  std::printf("\n%6s  %10s  %10s  %10s  %9s  %8s\n", "cores", "util(mc0)",
              "util(mc1)", "row-hit", "mean wait", "events");
  for (int cores : coreCounts) {
    const perf::RunProfile profile =
        analysis::runOnce(machine, workload, cores, simConfig);
    OCCM_REQUIRE_MSG(profile.trace != nullptr, "run carried no trace");

    const std::string stem =
        outdir + "/" + name + "_" + std::to_string(cores) + "cores";
    analysis::writeFile(stem + ".trace.json",
                        obs::toChromeTraceJson(*profile.trace));
    analysis::writeFile(
        stem + ".metrics.csv",
        analysis::metricsToCsv(profile.trace->metrics, machine.clockGhz));

    double rowHit = 0.0;
    double meanWait = 0.0;
    std::uint64_t requests = 0;
    for (std::size_t i = 0; i < profile.controllerStats.size(); ++i) {
      const auto& c = profile.controllerStats[i];
      rowHit += c.rowHitRatio() * static_cast<double>(c.requests);
      meanWait += c.meanWait() * static_cast<double>(c.requests);
      requests += c.requests;
    }
    const double denom = requests == 0 ? 1.0 : static_cast<double>(requests);
    std::printf("%6d  %9.1f%%  %9.1f%%  %9.1f%%  %9.1f  %8zu\n", cores,
                100.0 * profile.controllerUtilization(0),
                100.0 * profile.controllerUtilization(1),
                100.0 * rowHit / denom, meanWait / denom,
                profile.trace->events.size());
  }
  std::printf(
      "\nWrote *.trace.json (drag into https://ui.perfetto.dev) and\n"
      "*.metrics.csv (tidy per-window series) to %s\n",
      outdir.c_str());
  return 0;
}
