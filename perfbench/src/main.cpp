// occm_perfbench: the repository's benchmark driver. Runs one workload for
// a time budget and prints one JSON object (metrics with units and sample
// counts, output-check outcome, host header) as its last line of output.
// run.py builds this binary, runs it, checks the sweep fingerprints
// against perfbench/config.json and prints the report.
//
//   occm_perfbench --workload=cg-w-numa24 --workload-seed=2011 --seconds=12
//   occm_perfbench --workload=advisor-open --arrival-seed=3 --seconds=12
//                  --trace=1
//
// A traced run writes its Chrome trace to
// .bench_out/<workload>-seed<seed>.trace.json.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace {

using perfbench::BenchOptions;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: occm_perfbench --workload=NAME [--seed=N] [--workload-seed=N]\n"
      "         [--arrival-seed=N] [--seconds=S] [--trace=0|1]\n"
      "  workloads: cg-c-numa24 sp-b-amd48 cg-w-numa24 advisor-open\n",
      why.c_str());
  std::exit(2);
}

BenchOptions parseArgs(int argc, char** argv) {
  BenchOptions o;
  bool haveArrivalSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage("arguments are --flag=value, got \"" + arg + "\"");
    }
    const std::string flag = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    const auto unsignedValue = [&] {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        usage("bad value in \"" + arg + "\"");
      }
      return static_cast<std::uint64_t>(v);
    };
    const auto doubleValue = [&] {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(v >= 0.0)) {
        usage("bad value in \"" + arg + "\"");
      }
      return v;
    };
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = unsignedValue();
    } else if (flag == "--workload-seed") {
      o.workloadSeed = unsignedValue();
    } else if (flag == "--arrival-seed") {
      o.arrivalSeed = unsignedValue();
      haveArrivalSeed = true;
    } else if (flag == "--seconds") {
      o.seconds = doubleValue();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace wants 0 or 1");
      }
      o.traced = value == "1";
    } else {
      usage("unrecognized argument \"" + arg + "\"");
    }
  }
  if (o.workload.empty()) {
    usage("--workload is required");
  }
  if (!haveArrivalSeed) {
    o.arrivalSeed = o.seed;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // A vanished peer must surface as a failed send, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const BenchOptions options = parseArgs(argc, argv);

  const perfbench::HostInfo host = perfbench::describeHost();
  if (!host.optimized) {
    std::fprintf(stderr,
                 "error: refusing to report from an unoptimized build "
                 "(build type \"%s\")\n",
                 host.buildType.c_str());
    return 3;
  }

  perfbench::RunResult result;
  result.workload = options.workload;
  result.seed = options.seed;
  result.workloadSeed = options.workloadSeed;
  result.arrivalSeed = options.arrivalSeed;
  result.traced = options.traced;
  perfbench::SpanRecorder spans(options.traced);
  try {
    if (const auto sweep =
            perfbench::sweepCaseFor(options.workload, options.workloadSeed)) {
      perfbench::runSweepWorkload(*sweep, options, spans, result);
    } else if (options.workload == "advisor-open") {
      perfbench::runAdvisorWorkload(options, spans, result);
    } else {
      usage("unknown workload \"" + options.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!options.traced) {
    result.set("peak_rss_mb", perfbench::peakRssMib(), "MiB");
  } else {
    result.layerSelfNs = perfbench::layerSelfTimesNs(spans.spans());
    const std::string tracePath = ".bench_out/" + options.workload + "-seed" +
                                  std::to_string(options.seed) +
                                  ".trace.json";
    const std::filesystem::path path(tracePath);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    out << spans.chromeTrace();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   tracePath.c_str());
      return 1;
    }
    result.tracePath = tracePath;
  }
  std::printf("%s\n", perfbench::toJson(result, host).c_str());
  return 0;
}
