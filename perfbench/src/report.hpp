#pragma once

// One run's result as the driver binary hands it to run.py: a single JSON
// object on the last line of standard output. run.py checks it against
// the pinned fingerprints and BENCHMARK.json, prints the report and the
// final result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t workloadSeed = 0;
  std::uint64_t arrivalSeed = 0;
  bool traced = false;
  /// Timed units of work (sweeps or requests) and how many of them failed
  /// a run or an output check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Units whose output check found a wrong answer (also counted failed).
  /// A shed or a failed run is a failure; a wrong answer is incorrect.
  std::uint64_t wrong = 0;
  std::vector<std::string> failures;      ///< first check failures, for humans
  std::vector<std::string> fingerprints;  ///< crc32 of each timed sweep's CSV
  std::map<std::string, Metric> metrics;  ///< metrics named in BENCHMARK.json
  std::map<std::string, Metric> figures;  ///< report-only figures
  std::map<std::string, std::uint64_t> layerSelfNs;
  std::vector<std::string> notes;
  std::string tracePath;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1) {
    figures[name] = Metric{value, unit, samples};
  }
  /// Records why a unit of work failed its check (the caller counts it).
  void noteFailure(std::string why) {
    if (failures.size() < 20) {
      failures.push_back(std::move(why));
    }
  }
};

[[nodiscard]] std::string toJson(const RunResult& result,
                                 const HostInfo& host);

}  // namespace perfbench
