#include "analysis/csv.hpp"

#include <cstdio>
#include <fstream>

#include "common/error.hpp"

namespace occm::analysis {

namespace {
std::string escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}
}  // namespace

std::string csvRow(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += escape(cells[i]);
  }
  out += '\n';
  return out;
}

std::string sweepToCsv(const SweepResult& sweep) {
  OCCM_REQUIRE_MSG(!sweep.profiles.empty(), "empty sweep");
  std::string out = csvRow({"cores", "total_cycles", "stall_cycles",
                            "work_cycles", "llc_misses", "coherence_misses",
                            "writebacks", "makespan", "omega"});
  // Omega is normalized to C(1) when the sweep includes a 1-core run,
  // otherwise to the first profile (relative contention).
  double c1 = sweep.profiles.front().totalCyclesD();
  for (const perf::RunProfile& p : sweep.profiles) {
    if (p.activeCores == 1) {
      c1 = p.totalCyclesD();
      break;
    }
  }
  for (const perf::RunProfile& p : sweep.profiles) {
    out += csvRow({std::to_string(p.activeCores),
                   num(static_cast<double>(p.counters.totalCycles)),
                   num(static_cast<double>(p.counters.stallCycles)),
                   num(static_cast<double>(p.counters.workCycles())),
                   num(static_cast<double>(p.counters.llcMisses)),
                   num(static_cast<double>(p.coherenceMisses)),
                   num(static_cast<double>(p.writebacks)),
                   num(static_cast<double>(p.makespan)),
                   num(model::degreeOfContention(p.totalCyclesD(), c1))});
  }
  return out;
}

std::string metricsToCsv(const obs::MetricRegistry& metrics,
                         double clockGhz) {
  OCCM_REQUIRE_MSG(clockGhz > 0.0, "clock must be positive");
  std::string out = csvRow(
      {"window_start_cycles", "window_start_ns", "metric", "unit", "value"});
  const Cycles window = metrics.windowCycles();
  for (const obs::Metric& metric : metrics.metrics()) {
    const std::vector<double> values = metric.series.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Cycles start = static_cast<Cycles>(i) * window;
      out += csvRow({std::to_string(start),
                     num(cyclesToNs(start, clockGhz)), metric.name,
                     metric.unit, num(values[i])});
    }
  }
  return out;
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::trunc);
  OCCM_REQUIRE_MSG(file.good(), "cannot open file for writing: " + path);
  file << contents;
  OCCM_REQUIRE_MSG(file.good(), "write failed: " + path);
}

}  // namespace occm::analysis
