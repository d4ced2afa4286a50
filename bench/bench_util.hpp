#pragma once

// Shared helpers for the experiment harnesses in bench/: the paper's
// machine list, program sets and printing conventions.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/text_table.hpp"
#include "core/occm.hpp"
#include "exec/thread_pool.hpp"

namespace occm::bench {

/// Sweep pool size shared by the drivers: 0 (the default) resolves to
/// OCCM_SWEEP_WORKERS or hardware concurrency; parseWorkers overrides it
/// from the command line.
inline int& sweepWorkers() {
  static int workers = 0;
  return workers;
}

/// Command-line arguments shared by every bench driver. Drivers that only
/// need the pool size may ignore the returned struct — parseBenchArgs
/// also stores workers into sweepWorkers().
struct BenchArgs {
  int workers = 0;  ///< sweep pool size; 0 resolves via env/hardware
};

/// Strict shared argument parser: accepts --workers=N and --help, and
/// *errors out* (usage on stderr, exit code 2) on anything unrecognized
/// or malformed, typos included.
inline BenchArgs parseBenchArgs(int argc, char** argv) {
  const auto usage = [&](std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--workers=N]\n"
                 "  --workers=N  sweep pool size (default: "
                 "OCCM_SWEEP_WORKERS or hardware concurrency)\n",
                 argc > 0 ? argv[0] : "bench");
  };
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(stderr);
    std::exit(2);
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (flag == "--workers") {
      if (eq == std::string::npos) {
        die("\"" + arg + "\" needs a value: --workers=...");
      }
      // Positive integer; dies on garbage, zero or trailing bytes.
      const std::string digits = arg.substr(eq + 1);
      char* end = nullptr;
      const long value = std::strtol(digits.c_str(), &end, 10);
      if (digits.empty() || *end != '\0' || value < 1 || value > 1 << 20) {
        die("bad value in \"" + arg + "\" (want an integer >= 1)");
      }
      args.workers = static_cast<int>(value);
    } else {
      die("unrecognized argument \"" + arg + "\"");
    }
  }
  sweepWorkers() = args.workers;
  std::printf("sweep pool size: %d\n",
              exec::resolveWorkerCount(sweepWorkers()));
  return args;
}

/// The five NPB dwarfs of Table I, in the paper's row order.
inline const std::vector<workloads::Program> kDwarfs = {
    workloads::Program::kEP, workloads::Program::kIS,
    workloads::Program::kFT, workloads::Program::kCG,
    workloads::Program::kSP};

/// Large problem class per program and machine: class C, except FT.B on
/// the UMA machine (the paper: FT.C swaps on the 4 GB UMA box).
inline workloads::ProblemClass largeClassFor(workloads::Program program,
                                             const topology::MachineSpec& m) {
  if (program == workloads::Program::kFT &&
      m.memoryArchitecture == topology::MemoryArchitecture::kUma) {
    return workloads::ProblemClass::kB;
  }
  if (program == workloads::Program::kX264) {
    return workloads::ProblemClass::kNative;
  }
  return workloads::ProblemClass::kC;
}

/// Runs one (program, class, machine, cores) grid and returns the sweep.
/// Runs the core counts on the shared sweepWorkers() pool (bit-identical
/// output for any pool size).
inline analysis::SweepResult sweep(const topology::MachineSpec& machine,
                                   workloads::Program program,
                                   workloads::ProblemClass cls,
                                   std::vector<int> coreCounts,
                                   bool sampler = false) {
  analysis::SweepConfig config;
  config.machine = machine;
  config.workload.program = program;
  config.workload.problemClass = cls;
  config.coreCounts = std::move(coreCounts);
  config.sim.enableSampler = sampler;
  config.parallel.workers = sweepWorkers();
  return analysis::runSweep(config);
}

/// Fits the contention model; on a FitError prints its diagnosis to
/// stderr and exits 1.
inline model::ContentionModel fitOrExit(
    const model::MachineShape& shape,
    std::span<const model::MeasuredPoint> points,
    const model::ContentionModel::Options& options = {}) {
  auto fitted = model::ContentionModel::tryFit(shape, points, options);
  if (!fitted) {
    std::fprintf(stderr, "error: model fit failed: %s\n",
                 fitted.error().describe().c_str());
    std::exit(1);
  }
  return std::move(*fitted);
}

/// All core counts 1..max for a machine.
inline std::vector<int> allCores(const topology::MachineSpec& machine) {
  std::vector<int> counts;
  for (int n = 1; n <= machine.logicalCores(); ++n) {
    counts.push_back(n);
  }
  return counts;
}

/// Observability column group shared by the experiment drivers: the
/// per-controller snapshot (busiest-controller utilization, aggregate
/// row-hit ratio, request-weighted mean queue wait) that pairs the
/// paper's cycle counters with the memory-system view.
inline std::vector<std::string> obsHeader() {
  return {"util", "row-hit", "wait [cyc]"};
}

inline std::vector<std::string> obsRow(const perf::RunProfile& p) {
  double util = 0.0;
  for (std::size_t i = 0; i < p.controllerStats.size(); ++i) {
    util = std::max(util, p.controllerUtilization(i));
  }
  double rowHit = 0.0;
  double wait = 0.0;
  std::uint64_t requests = 0;
  for (const mem::ControllerStats& c : p.controllerStats) {
    rowHit += c.rowHitRatio() * static_cast<double>(c.requests);
    wait += c.meanWait() * static_cast<double>(c.requests);
    requests += c.requests;
  }
  const double denom = requests == 0 ? 1.0 : static_cast<double>(requests);
  return {analysis::fmt(100.0 * util, 1) + "%",
          analysis::fmt(100.0 * rowHit / denom, 1) + "%",
          analysis::fmt(wait / denom, 1)};
}

/// Appends the obs column group to a header/row cell list.
inline std::vector<std::string> withObs(std::vector<std::string> cells,
                                        std::vector<std::string> obsCells) {
  for (std::string& cell : obsCells) {
    cells.push_back(std::move(cell));
  }
  return cells;
}

inline void printHeading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace occm::bench
