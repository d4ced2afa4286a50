// Fault lab: what memory contention looks like when the machine is not
// healthy. Runs CG on the simulated Intel NUMA machine across a set of
// scripted degraded-mode scenarios and compares, per scenario:
//
//   - omega(n) at the paper's regression core counts,
//   - the fitted model parameters mu/r and L/r (service rate and demand
//     per core), showing how each fault class shifts them,
//   - the degraded-mode counters (rerouted/retried/background transfers,
//     throttled cycles).
//
// Every scenario is deterministic: identical FaultPlan + seed reproduce
// bit-identical counters. Scenarios that leave the model unfittable
// (e.g. a saturated regime) print the typed FitError diagnosis instead
// of crashing — the same Expected<.., FitError> channel the sweep
// harness relies on.
//
// Usage: fault_lab [program.class] [--workers=N] [--deadline=SECONDS]
//        [--isolate] [--mem-limit=MB]
// (default CG.S)
//
// --deadline caps each run's wall time: an overrunning scenario is
// reported as a timeout while the remaining scenarios still execute.
// Ctrl-C stops gracefully between cancellation points instead of killing
// the process mid-scenario. --isolate forks each attempt so a crashing
// scenario is contained as RunFailure{crash} (required for any plan with
// crash-injection events) and appends a deterministic crash-injection
// scenario to the lab; --mem-limit=MB adds a per-attempt RLIMIT_AS
// budget and implies --isolate.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"
#include "fault/fault_plan.hpp"

namespace {

// requestStop() is a lock-free atomic store — safe from a signal handler.
occm::CancellationSource gStop;

extern "C" void onSigint(int /*signum*/) { gStop.requestStop(); }

struct Scenario {
  std::string name;
  occm::fault::FaultPlan plan;
};

/// Builds the scenario list with windows positioned relative to the
/// baseline max-core makespan, so every fault actually overlaps the run.
/// `withCrash` appends a crash-injection scenario — only offered under
/// --isolate, because runSweep refuses crash plans in-process.
std::vector<Scenario> makeScenarios(occm::Cycles makespan, bool withCrash) {
  using occm::Cycles;
  const Cycles q1 = makespan / 4;
  const Cycles q3 = 3 * (makespan / 4);
  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline", {}});
  {
    occm::fault::FaultPlan plan;
    plan.controllerOutage(1, q1, q3);
    scenarios.push_back({"outage(node1)", plan});
  }
  {
    occm::fault::FaultPlan plan;
    plan.controllerDegrade(1, q1, q3, 2.0);
    scenarios.push_back({"degrade(node1,2x)", plan});
  }
  {
    occm::fault::FaultPlan plan;
    plan.eccSpike(1, q1, q3, 0.05, 500);
    scenarios.push_back({"ecc(node1,p=.05)", plan});
  }
  {
    occm::fault::FaultPlan plan;
    for (occm::CoreId core = 0; core < 6; ++core) {
      plan.coreThrottle(core, q1, q3, 2.0);
    }
    scenarios.push_back({"throttle(6 cores,2x)", plan});
  }
  {
    occm::fault::FaultPlan plan;
    plan.backgroundTraffic(0, q1, q3, 400);
    scenarios.push_back({"background(node0)", plan});
  }
  if (withCrash) {
    // Every run of this scenario segfaults mid-simulation; isolation
    // contains each death as RunFailure{crash} and the lab moves on.
    occm::fault::FaultPlan plan;
    plan.crashSegv(q1);
    scenarios.push_back({"crash(segv,all runs)", plan});
  }
  return scenarios;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace occm;

  workloads::WorkloadSpec workload;
  workload.problemClass = workloads::ProblemClass::kS;
  int workers = 0;  // 0 = OCCM_SWEEP_WORKERS or hardware concurrency
  double deadline = 0.0;
  bool isolate = false;
  std::uint64_t memLimitBytes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers = examples::integerArg("--workers", arg.substr(10), 1);
      continue;
    }
    if (arg.rfind("--deadline=", 0) == 0) {
      deadline = examples::secondsArg("--deadline", arg.substr(11));
      continue;
    }
    if (arg == "--isolate") {
      isolate = true;
      continue;
    }
    if (arg.rfind("--mem-limit=", 0) == 0) {
      memLimitBytes = examples::memLimitArg(arg.substr(12));
      isolate = true;
      continue;
    }
    const auto dot = arg.find('.');
    if (dot == std::string::npos) {
      std::fprintf(stderr,
                   "usage: %s [program.class] [--workers=N] "
                   "[--deadline=SECONDS] [--isolate] [--mem-limit=MB]\n",
                   argv[0]);
      return 1;
    }
    workload = examples::workloadArg(arg);
  }

  analysis::SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload = workload;
  config.parallel.workers = workers;
  config.limits.wallSeconds = deadline;
  config.isolation.enabled = isolate;
  config.isolation.memoryBytes = memLimitBytes;
  config.cancel = gStop.token();
  std::signal(SIGINT, onSigint);
  const model::MachineShape shape = model::shapeOf(config.machine);
  config.coreCounts = model::defaultFitCores(shape);
  config.coreCounts.push_back(shape.totalCores());

  std::printf("Fault lab: %s on %s, n in {",
              workloads::workloadName(workload.program, workload.problemClass)
                  .c_str(),
              config.machine.name.c_str());
  for (std::size_t i = 0; i < config.coreCounts.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ", ", config.coreCounts[i]);
  }
  std::printf("}\n\n");

  // Healthy run first: its makespan anchors the fault windows, its fit is
  // the reference the degraded fits are compared against.
  const analysis::SweepResult baseline = analysis::runSweep(config);
  if (baseline.stopped || !baseline.pendingCoreCounts().empty()) {
    std::printf("%s\n", baseline.diagnostics().c_str());
    return baseline.stopped ? 130 : 1;
  }
  const Cycles makespan = baseline.profiles.back().makespan;
  double baseMu = 0.0;
  double baseL = 0.0;

  std::printf("%-22s %9s %9s %12s %12s  %s\n", "scenario", "omega(13)",
              "omega(24)", "mu/r", "L/r", "degraded-mode counters");
  for (const Scenario& scenario : makeScenarios(makespan, isolate)) {
    analysis::SweepConfig run = config;
    run.sim.faultPlan = scenario.plan;
    const analysis::SweepResult sweep = analysis::runSweep(run);
    if (sweep.stopped) {
      std::printf("%s\n", sweep.diagnostics().c_str());
      return 130;
    }
    if (!sweep.failures.empty()) {
      std::printf("%-22s %s\n", scenario.name.c_str(),
                  sweep.diagnostics().c_str());
      continue;
    }

    const auto fitPoints =
        analysis::pointsAt(sweep, model::defaultFitCores(shape));
    const auto fitted = model::ContentionModel::tryFit(shape, fitPoints);
    const auto omegas = sweep.omegas();
    const std::size_t last = sweep.profiles.size() - 1;

    char muText[64];
    char lText[64];
    if (fitted) {
      const auto& single = fitted->singleProcessor();
      const double mu = single.muOverR();
      const double l = single.lOverR();
      if (scenario.plan.empty()) {
        baseMu = mu;
        baseL = l;
        std::snprintf(muText, sizeof muText, "%12.4e", mu);
        std::snprintf(lText, sizeof lText, "%12.4e", l);
      } else {
        std::snprintf(muText, sizeof muText, "%+11.1f%%",
                      100.0 * (mu - baseMu) / baseMu);
        std::snprintf(lText, sizeof lText, "%+11.1f%%",
                      100.0 * (l - baseL) / baseL);
      }
    } else {
      std::snprintf(muText, sizeof muText, "unfittable");
      std::snprintf(lText, sizeof lText, "%s",
                    toString(fitted.error().kind));
    }

    const perf::RunProfile& worst = sweep.profiles[last];
    std::uint64_t eccRetries = 0;
    for (const mem::ControllerStats& stats : worst.controllerStats) {
      eccRetries += stats.eccRetries;
    }
    std::printf("%-22s %9.3f %9.3f %12s %12s  ", scenario.name.c_str(),
                omegas[omegas.size() - 2], omegas[last], muText, lText);
    std::printf("rerouted=%llu retries=%llu ecc=%llu bg=%llu throttled=%llu\n",
                static_cast<unsigned long long>(worst.reroutedRequests),
                static_cast<unsigned long long>(worst.faultRetries),
                static_cast<unsigned long long>(eccRetries),
                static_cast<unsigned long long>(worst.backgroundRequests),
                static_cast<unsigned long long>(worst.throttledCycles));
  }

  std::printf(
      "\nReading: omega rows show contention at the second-processor "
      "boundary (n=13)\nand the full machine (n=24); mu/r and L/r rows are "
      "the fitted shift vs the\nbaseline single-controller service rate and "
      "per-core demand.\n");
  return 0;
}
