#pragma once

// The golden-fingerprint equivalence grid (DESIGN.md §14): a fixed
// workload × topology × ±FaultPlan × pool-size grid whose per-point
// CRC-32 fingerprints and deterministic summary stats are checked into
// tests/equivalence/golden_fingerprints.txt. The corpus was generated
// from the pre-rewrite event loop (scripts/gen_golden.sh regenerates it
// deliberately); the loader test replays every point serial and
// in-process and fails with a per-point diff on any drift — the safety
// net under which the hot-path rewrite landed.
//
// Shared between the generator (gen_golden.cpp) and the loader test
// (test_golden_equivalence.cpp) so the two can never disagree about what
// the grid is.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "fault/fault_plan.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace occm::equivalence {

/// One grid point: which sweep to run and how.
struct GoldenPoint {
  workloads::Program program;
  workloads::ProblemClass problemClass;
  std::string topology;  ///< preset name, as recorded in the corpus
  bool faults = false;   ///< run under the standard fault plan
  int poolSize = 1;
  /// Active-core counts swept. Not part of the label: every
  /// (workload, topology, faults, pool) appears once in the grid.
  std::vector<int> coreCounts = {1, 2, 4};

  [[nodiscard]] std::string workloadName() const {
    return workloads::workloadName(program, problemClass);
  }
  /// "EP.S@testUma4 faults=plan pool=2" — the diff label.
  [[nodiscard]] std::string label() const {
    return workloadName() + "@" + topology +
           " faults=" + (faults ? "plan" : "none") +
           " pool=" + std::to_string(poolSize);
  }
};

/// Deterministic summary of one replayed grid point. Every field is a
/// pure function of the simulated schedule; the fingerprint is the
/// CRC-32 of the sweep's CSV export (the same anchor perfbench/config.json pins).
struct GoldenRecord {
  std::uint32_t fingerprint = 0;
  std::uint64_t simCycles = 0;      ///< totalCycles summed over profiles
  std::uint64_t stallCycles = 0;
  std::uint64_t llcMisses = 0;
  std::uint64_t requests = 0;       ///< controller demand requests
  std::uint64_t makespanSum = 0;    ///< makespan summed over profiles
  std::uint64_t eventsPopped = 0;   ///< event-loop turns, summed
  std::uint64_t eventsPushed = 0;
  std::uint64_t maxQueueDepth = 0;  ///< max over the sweep's runs
  std::uint64_t reservationOps = 0; ///< controller ticks, summed
};

inline topology::MachineSpec goldenPreset(const std::string& name) {
  if (name == "testUma4") {
    return topology::testUma4();
  }
  if (name == "testNuma4") {
    return topology::testNuma4();
  }
  if (name == "intelUma8") {
    return topology::intelUma8();
  }
  if (name == "intelNuma24") {
    return topology::intelNuma24();
  }
  if (name == "amdNuma48") {
    return topology::amdNuma48();
  }
  throw ContractViolation("unknown golden topology preset: " + name);
}

/// The standard fault plan of the `faults=plan` points: one degraded
/// controller window, an ECC spike, a throttled core and a background
/// burst — every degraded-mode path that leaves the run completable on
/// both test machines (no outage: testUma4 has nowhere to fail over to).
inline fault::FaultPlan goldenFaultPlan() {
  fault::FaultPlan plan;
  plan.controllerDegrade(0, 100'000, 400'000, 1.5)
      .eccSpike(0, 150'000, 350'000, 0.05, 200)
      .coreThrottle(1, 50'000, 250'000, 1.3)
      .backgroundTraffic(0, 200'000, 380'000, 500);
  return plan;
}

/// The grid: fast workloads crossed with both test machines, ±faults,
/// serial and pool-of-2 execution. CG.S (the slowest cell by an order of
/// magnitude) runs fault-free only, keeping the full corpus replayable
/// in tier-1 and sanitizer legs. Serial, fault-free points on the
/// paper's three machines follow, at one, half and all of their cores:
/// their shared areas and sharer sets are large enough to exercise the
/// coherence directory the way perfbench's sweeps do (CG.W's spans more
/// than one directory page). A serial x264 point closes the grid.
inline std::vector<GoldenPoint> goldenGrid() {
  std::vector<GoldenPoint> grid;
  const std::vector<std::pair<workloads::Program, workloads::ProblemClass>>
      fast = {{workloads::Program::kEP, workloads::ProblemClass::kS},
              {workloads::Program::kIS, workloads::ProblemClass::kS},
              {workloads::Program::kFT, workloads::ProblemClass::kS},
              {workloads::Program::kSP, workloads::ProblemClass::kS}};
  for (const auto& [program, cls] : fast) {
    for (const char* topo : {"testUma4", "testNuma4"}) {
      for (const bool faults : {false, true}) {
        for (const int pool : {1, 2}) {
          grid.push_back({program, cls, topo, faults, pool});
        }
      }
    }
  }
  for (const char* topo : {"testUma4", "testNuma4"}) {
    for (const int pool : {1, 2}) {
      grid.push_back(
          {workloads::Program::kCG, workloads::ProblemClass::kS, topo,
           /*faults=*/false, pool});
    }
  }
  using workloads::Program;
  using workloads::ProblemClass;
  const std::vector<int> numa24Cores = {1, 12, 24};
  const std::vector<int> amd48Cores = {1, 24, 48};
  grid.push_back({Program::kCG, ProblemClass::kS, "intelNuma24", false, 1,
                  numa24Cores});
  grid.push_back({Program::kSP, ProblemClass::kS, "intelNuma24", false, 1,
                  numa24Cores});
  grid.push_back({Program::kCG, ProblemClass::kS, "amdNuma48", false, 1,
                  amd48Cores});
  grid.push_back({Program::kSP, ProblemClass::kS, "amdNuma48", false, 1,
                  amd48Cores});
  grid.push_back({Program::kCG, ProblemClass::kS, "intelUma8", false, 1,
                  {1, 4, 8}});
  grid.push_back({Program::kCG, ProblemClass::kW, "intelNuma24", false, 1,
                  numa24Cores});
  // x264's frame pipeline, the one workload unlike the NPB kernels.
  grid.push_back({Program::kX264, ProblemClass::kSimSmall, "testNuma4",
                  false, 1});
  return grid;
}

/// Replays one grid point (in-process; the pool size is the point's own,
/// so pool-1 points are strictly serial) and reduces it to its record.
inline GoldenRecord replayGoldenPoint(const GoldenPoint& point) {
  analysis::SweepConfig config;
  config.machine = goldenPreset(point.topology);
  config.workload.program = point.program;
  config.workload.problemClass = point.problemClass;
  config.coreCounts = point.coreCounts;
  config.parallel.workers = point.poolSize;
  if (point.faults) {
    config.sim.faultPlan = goldenFaultPlan();
  }
  const analysis::SweepResult sweep = analysis::runSweep(config);
  OCCM_REQUIRE_MSG(sweep.failures.empty(),
                   "golden point must not fail: " + point.label() + ": " +
                       sweep.diagnostics());

  GoldenRecord record;
  record.fingerprint = crc32(analysis::sweepToCsv(sweep));
  for (const perf::RunProfile& p : sweep.profiles) {
    record.simCycles += p.counters.totalCycles;
    record.stallCycles += p.counters.stallCycles;
    record.llcMisses += p.counters.llcMisses;
    record.makespanSum += p.makespan;
    record.eventsPopped += p.hotPath.eventsPopped;
    record.eventsPushed += p.hotPath.eventsPushed;
    record.maxQueueDepth =
        std::max(record.maxQueueDepth, p.hotPath.maxEventQueueDepth);
    record.reservationOps += p.hotPath.controllerTicks;
    for (const mem::ControllerStats& c : p.controllerStats) {
      record.requests += c.requests;
    }
  }
  return record;
}

/// One corpus line: space-separated key=value pairs, fingerprint in hex.
inline std::string formatGoldenLine(const GoldenPoint& point,
                                    const GoldenRecord& r) {
  std::ostringstream out;
  char fp[9];
  std::snprintf(fp, sizeof fp, "%08x", r.fingerprint);
  out << "workload=" << point.workloadName()
      << " topology=" << point.topology
      << " faults=" << (point.faults ? "plan" : "none")
      << " pool=" << point.poolSize << " fingerprint=" << fp
      << " sim_cycles=" << r.simCycles << " stall_cycles=" << r.stallCycles
      << " llc_misses=" << r.llcMisses << " requests=" << r.requests
      << " makespan_sum=" << r.makespanSum
      << " events_popped=" << r.eventsPopped
      << " events_pushed=" << r.eventsPushed
      << " max_queue_depth=" << r.maxQueueDepth
      << " reservation_ops=" << r.reservationOps;
  return out.str();
}

}  // namespace occm::equivalence
