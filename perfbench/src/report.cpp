#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "obs/chrome_trace.hpp"

namespace perfbench {

namespace {

std::string quote(const std::string& s) {
  return "\"" + occm::obs::jsonEscape(s) + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricMap(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ",") + quote(name) + ":{\"value\":" +
           number(m.value) + ",\"unit\":" + quote(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
    first = false;
  }
  return out + "}";
}

std::string stringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + quote(items[i]);
  }
  return out + "]";
}

}  // namespace

std::string toJson(const RunResult& r, const HostInfo& host) {
  std::string out = "{";
  out += "\"workload\":" + quote(r.workload);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += ",\"workload_seed\":" + std::to_string(r.workloadSeed);
  out += ",\"arrival_seed\":" + std::to_string(r.arrivalSeed);
  out += std::string(",\"traced\":") + (r.traced ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"wrong\":" + std::to_string(r.wrong);
  out += ",\"failures\":" + stringList(r.failures);
  out += ",\"fingerprints\":" + stringList(r.fingerprints);
  out += ",\"metrics\":" + metricMap(r.metrics);
  out += ",\"figures\":" + metricMap(r.figures);
  out += ",\"layer_self_ms\":{";
  bool first = true;
  for (const auto& [layer, ns] : r.layerSelfNs) {
    out += (first ? "" : ",") + quote(layer) + ":" +
           number(static_cast<double>(ns) / 1e6);
    first = false;
  }
  out += "}";
  out += ",\"notes\":" + stringList(r.notes);
  out += ",\"trace_path\":" + quote(r.tracePath);
  out += ",\"host\":{\"nproc\":" + std::to_string(host.nproc) +
         ",\"cpu_model\":" + quote(host.cpuModel) +
         ",\"compiler\":" + quote(host.compiler) +
         ",\"build_type\":" + quote(host.buildType) +
         ",\"optimized\":" + (host.optimized ? "true" : "false") +
         ",\"occm_enable_obs\":" + (host.obsEnabled ? "true" : "false") +
         ",\"occm_disable_asserts\":" +
         (host.assertsDisabled ? "true" : "false") + "}";
  return out + "}";
}

}  // namespace perfbench
