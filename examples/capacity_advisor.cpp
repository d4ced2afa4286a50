// Capacity advisor: use the fitted contention model to choose how many
// cores to give a memory-bound program. The model needs only a handful of
// measured runs (the paper's point: predictive analysis from 3-5
// measurements instead of a full sweep).
//
// Speedup(n) = C(1) / (C(n)/n): total cycles spread over n cores.
// Efficiency(n) = Speedup(n) / n. The advisor reports the core count that
// maximises speedup and the largest count whose efficiency stays above a
// threshold — on contended machines those differ substantially.
//
// Thin client of analysis::fitAdvisorModel — the same fit the advisor
// server's warm cache is filled with (DESIGN.md §15).

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/advisor.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"
#include "topology/presets.hpp"

namespace {

struct Args {
  std::string workload = "SP.C";
  std::string machine = "intel-numa24";
  double efficiency = 0.5;
  int workers = 0;
};

void usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s [--workload=PROG.CLASS] [--machine=PRESET] "
      "[--efficiency=F] [--workers=N]\n"
      "  --workload=P.C   program.class to advise on (default SP.C)\n"
      "  --machine=NAME   topology preset (default intel-numa24)\n"
      "  --efficiency=F   efficiency threshold in (0,1] (default 0.5)\n"
      "  --workers=N      sweep pool size (default: OCCM_SWEEP_WORKERS)\n",
      argv0);
  std::fprintf(to, "  machine presets:");
  for (const std::string& name : occm::topology::presetNames()) {
    std::fprintf(to, " %s", name.c_str());
  }
  std::fprintf(to, "\n");
}

/// Strict parser: usage on stderr and exit 2 on anything unrecognized.
Args parseArgs(int argc, char** argv) {
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(stderr, argv[0]);
    std::exit(2);
  };
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--help" || flag == "-h") {
      usage(stdout, argv[0]);
      std::exit(0);
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--machine") {
      args.machine = value;
    } else if (flag == "--efficiency") {
      const std::optional<double> efficiency =
          occm::examples::efficiencyArg(value);
      if (!efficiency.has_value()) {
        die("bad value in \"" + arg + "\" (want a number in (0, 1])");
      }
      args.efficiency = *efficiency;
    } else if (flag == "--workers") {
      char* end = nullptr;
      const long workers = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || workers < 1 || workers > 1024) {
        die("bad value in \"" + arg + "\" (want an integer >= 1)");
      }
      args.workers = static_cast<int>(workers);
    } else {
      die("unrecognized argument \"" + arg + "\"");
    }
    if (eq == std::string::npos && (flag == "--workload" ||
                                    flag == "--machine" ||
                                    flag == "--efficiency" ||
                                    flag == "--workers")) {
      die("\"" + arg + "\" needs a value: " + flag + "=...");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace occm;
  const Args args = parseArgs(argc, argv);

  const auto machine = topology::presetByName(args.machine);
  if (!machine.has_value()) {
    std::fprintf(stderr, "error: unknown machine preset \"%s\"\n",
                 args.machine.c_str());
    usage(stderr, argv[0]);
    return 2;
  }
  const std::size_t dot = args.workload.find('.');
  const auto program = workloads::parseProgram(
      dot == std::string::npos ? args.workload : args.workload.substr(0, dot));
  const auto problemClass = workloads::parseProblemClass(
      dot == std::string::npos ? "" : args.workload.substr(dot + 1));
  if (!program.has_value() || !problemClass.has_value() ||
      !workloads::classValidFor(*program, *problemClass)) {
    std::fprintf(stderr, "error: unknown workload \"%s\"\n",
                 args.workload.c_str());
    usage(stderr, argv[0]);
    return 2;
  }

  analysis::AdvisorFitConfig config;
  config.machine = *machine;
  config.workload.program = *program;
  config.workload.problemClass = *problemClass;
  config.workers = args.workers;

  const model::MachineShape shape = model::shapeOf(*machine);
  std::printf("Measuring %s on %s at n =", args.workload.c_str(),
              machine->name.c_str());
  for (int n : model::defaultFitCores(shape)) {
    std::printf(" %d", n);
  }
  std::printf(" ...\n");

  const auto fitted = analysis::fitAdvisorModel(config);
  if (!fitted) {
    std::fprintf(stderr, "error: model fit failed: %s\n",
                 fitted.error().describe().c_str());
    return 1;
  }
  const model::ContentionModel& m = fitted->model;

  std::printf("\n%6s  %10s  %9s  %11s\n", "cores", "omega(n)", "speedup",
              "efficiency");
  for (int n = 1; n <= shape.totalCores(); ++n) {
    std::printf("%6d  %10.2f  %9.2f  %10.1f%%\n", n, m.predictOmega(n),
                model::predictSpeedup(m, n),
                100.0 * model::predictEfficiency(m, n));
  }
  const model::SpeedupAdvice advice = model::adviseCores(m, args.efficiency);
  std::printf("\nadvice: peak predicted speedup %.2fx at %d cores;\n"
              "        last core count with >= %.0f%% efficiency: %d\n",
              advice.bestSpeedup, advice.bestCores, 100.0 * args.efficiency,
              advice.efficientCores);
  std::printf("(model fit from %zu runs instead of a %d-run sweep)\n",
              fitted->measuredRuns, shape.totalCores());
  return 0;
}
