// Contention sweep: the paper's full measure -> fit -> validate pipeline
// on the simulated Intel NUMA machine.
//
//   1. Build the CG.C workload with one thread per logical core.
//   2. Run it on 1..24 active cores (fill-processor-first, fixed threads).
//   3. Fit the contention model from the paper's four regression inputs.
//   4. Print measured vs. modelled omega(n) and the mean relative error.
//
// Usage: contention_sweep [program.class] [--workers=N] [--deadline=SECONDS]
//        [--budget-cycles=N] [--checkpoint=PATH] [--isolate] [--mem-limit=MB]
//        [--listen=PORT] [--grace=SECONDS] [--csv=PATH]
//        [--connect=HOST:PORT] [--worker-id=NAME] [--straggle-ms=N]
//        [--max-tasks=N] [--chaos-seed=N] [--chaos-plan=SPEC]
// (default CG.C, pool size from OCCM_SWEEP_WORKERS or hardware concurrency)
//
// Lifecycle controls: --deadline caps each run's wall time and
// --budget-cycles caps its simulated cycles — an overrunning run becomes a
// RunFailure{timeout} while the rest of the sweep completes. Ctrl-C stops
// the sweep gracefully: in-flight runs wind down at their next cancellation
// point, a valid checkpoint is flushed (with --checkpoint), and rerunning
// the same command resumes from it.
//
// Crash containment: --isolate forks every attempt into its own process,
// so a crashing run is recorded as RunFailure{crash} (signal, rlimit,
// stderr tail) instead of killing the sweep; successful runs stay
// bit-identical to the in-process path. --mem-limit=MB adds a per-attempt
// RLIMIT_AS budget (implies --isolate).
//
// Distributed sweeps: --listen=PORT turns this process into the fleet
// coordinator (PORT 0 picks an ephemeral port, printed on stdout), and
// --connect=HOST:PORT turns it into a worker that executes assigned core
// counts and reports results back. The merged output is bit-identical to
// a serial run regardless of fleet size, worker deaths, or re-dispatch
// order; --csv=PATH writes it with a CRC-32 fingerprint for comparison.
// --straggle-ms / --max-tasks are fault-drill knobs for smoke tests.
//
// Chaos drills: --chaos-seed=N (or an explicit --chaos-plan=SPEC, see
// exec/chaos) arms a deterministic network-fault schedule — frame drops,
// duplication, reordering, corruption, stalls, partitions, half-closes —
// on this process's transports: every accepted worker connection in
// coordinator mode, every dialled connection in worker mode. The sweep
// must still converge to the same CSV fingerprint or fail typed.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/csv.hpp"
#include "analysis/distributed_sweep.hpp"
#include "analysis/experiment.hpp"
#include "common/crc32.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"

namespace {

// Signal handlers may only touch signal-safe state; requestStop() is a
// lock-free atomic store, designed for exactly this call site.
occm::CancellationSource gStop;

extern "C" void onSigint(int /*signum*/) { gStop.requestStop(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace occm;

  workloads::WorkloadSpec workload;  // default CG.C
  int workers = 0;  // 0 = OCCM_SWEEP_WORKERS or hardware concurrency
  double deadline = 0.0;
  Cycles budgetCycles = 0;
  std::string checkpointPath;
  bool isolate = false;
  std::uint64_t memLimitBytes = 0;
  int listenPort = -1;  // -1 = not a coordinator
  std::string connectHost;
  int connectPort = 0;
  std::string workerId = "worker";
  double grace = 5.0;
  double leaseSeconds = 0.0;      // 0 = library default
  int maxExpiries = -1;           // -1 = library default
  std::uint64_t idleTimeoutMs = 0;
  std::uint64_t straggleMs = 0;
  std::uint64_t maxTasks = 0;
  std::string csvPath;
  exec::chaos::ChaosConfig chaos;
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
    if (arg.rfind("--budget-cycles=", 0) == 0) {
      budgetCycles =
          examples::integerArg<Cycles>("--budget-cycles", arg.substr(16));
      continue;
    }
    if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpointPath = arg.substr(13);
      continue;
    }
    if (arg == "--isolate") {
      isolate = true;
      continue;
    }
    if (arg.rfind("--mem-limit=", 0) == 0) {
      // Per-attempt RLIMIT_AS budget in MiB; only meaningful for a
      // forked child, so it implies --isolate.
      memLimitBytes = examples::memLimitArg(arg.substr(12));
      isolate = true;
      continue;
    }
    if (arg.rfind("--listen=", 0) == 0) {
      // 0 = ephemeral
      listenPort = examples::integerArg("--listen", arg.substr(9), 0, 65535);
      continue;
    }
    if (arg.rfind("--connect=", 0) == 0) {
      const std::string hostPort = arg.substr(10);
      const auto colon = hostPort.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect expects HOST:PORT, got '%s'\n",
                     hostPort.c_str());
        return 1;
      }
      connectHost = hostPort.substr(0, colon);
      connectPort = examples::integerArg("--connect port",
                                         hostPort.substr(colon + 1), 1, 65535);
      continue;
    }
    if (arg.rfind("--worker-id=", 0) == 0) {
      workerId = arg.substr(12);
      continue;
    }
    if (arg.rfind("--grace=", 0) == 0) {
      grace = examples::secondsArg("--grace", arg.substr(8));
      continue;
    }
    if (arg.rfind("--lease=", 0) == 0) {
      leaseSeconds = examples::secondsArg("--lease", arg.substr(8));
      continue;
    }
    if (arg.rfind("--max-expiries=", 0) == 0) {
      maxExpiries = examples::integerArg<int>("--max-expiries", arg.substr(15));
      continue;
    }
    if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      idleTimeoutMs = examples::integerArg<std::uint64_t>("--idle-timeout-ms",
                                                          arg.substr(18));
      continue;
    }
    if (arg.rfind("--straggle-ms=", 0) == 0) {
      straggleMs =
          examples::integerArg<std::uint64_t>("--straggle-ms", arg.substr(14));
      continue;
    }
    if (arg.rfind("--max-tasks=", 0) == 0) {
      maxTasks =
          examples::integerArg<std::uint64_t>("--max-tasks", arg.substr(12));
      continue;
    }
    if (arg.rfind("--csv=", 0) == 0) {
      csvPath = arg.substr(6);
      continue;
    }
    if (arg.rfind("--chaos-seed=", 0) == 0) {
      chaos.seed =
          examples::integerArg<std::uint64_t>("--chaos-seed", arg.substr(13));
      chaos.plan = exec::chaos::planFromSeed(chaos.seed);
      continue;
    }
    if (arg.rfind("--chaos-plan=", 0) == 0) {
      auto plan = exec::chaos::parseNetFaultPlan(arg.substr(13));
      if (!plan) {
        std::fprintf(stderr, "bad --chaos-plan: %s\n", plan.error().c_str());
        return 1;
      }
      chaos.plan = std::move(*plan);
      continue;
    }
    const auto dot = arg.find('.');
    if (dot == std::string::npos) {
      std::fprintf(stderr,
                   "usage: %s [program.class] [--workers=N] "
                   "[--deadline=SECONDS] [--budget-cycles=N] "
                   "[--checkpoint=PATH] [--isolate] [--mem-limit=MB] "
                   "[--listen=PORT] [--grace=SECONDS] [--lease=SECONDS] "
                   "[--max-expiries=N] [--csv=PATH] "
                   "[--connect=HOST:PORT] [--worker-id=NAME] "
                   "[--idle-timeout-ms=N] "
                   "[--straggle-ms=N] [--max-tasks=N] "
                   "[--chaos-seed=N] [--chaos-plan=SPEC]\n",
                   argv[0]);
      return 1;
    }
    workload = examples::workloadArg(arg);
  }

  std::signal(SIGINT, onSigint);
  // Chaos schedules half-close peers on purpose; writes into them must
  // come back as typed errors, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  if (chaos.enabled()) {
    // Log the resolved plan so a seeded drill is replayable from the log
    // alone (pass this spec back via --chaos-plan).
    std::printf("chaos plan: %s\n", chaos.plan.toSpec().c_str());
    // Flushed now: in worker mode stdout is a file, and the log must hold
    // the plan even if the process is killed before exit.
    std::fflush(stdout);
  }

  if (!connectHost.empty()) {
    // Worker mode: execute core counts for a remote coordinator and exit.
    analysis::SweepWorkerOptions options;
    options.host = connectHost;
    options.port = connectPort;
    options.workerId = workerId;
    options.isolation.enabled = isolate;
    options.isolation.memoryBytes = memLimitBytes;
    options.cancel = gStop.token();
    options.straggleMs = straggleMs;
    options.maxTasks = maxTasks;
    options.idleTimeoutMs = idleTimeoutMs;
    options.chaos = chaos;
    const exec::dist::WorkerReport report = analysis::runSweepWorker(options);
    std::printf("worker '%s': %llu task(s), %llu reconnect(s), stopped: %s\n",
                workerId.c_str(),
                static_cast<unsigned long long>(report.tasksCompleted),
                static_cast<unsigned long long>(report.reconnects),
                report.stopReason.c_str());
    return report.ok ? 0 : 1;
  }

  analysis::SweepConfig config;
  config.machine = topology::intelNuma24();
  config.workload = workload;
  config.parallel.workers = workers;
  config.limits.wallSeconds = deadline;
  config.limits.cycleBudget = budgetCycles;
  config.checkpointPath = checkpointPath;
  config.isolation.enabled = isolate;
  config.isolation.memoryBytes = memLimitBytes;
  config.cancel = gStop.token();
  if (listenPort >= 0) {
    config.distributed.listen = true;
    config.distributed.port = listenPort;
    config.distributed.graceWindowSeconds = grace;
    if (leaseSeconds > 0.0) {
      config.distributed.leaseSeconds = leaseSeconds;
      // Chaos drills shrink every recovery deadline together: detecting
      // a lost lease quickly is pointless if eviction still waits the
      // production 15 s.
      config.distributed.heartbeatTimeoutSeconds =
          std::min(config.distributed.heartbeatTimeoutSeconds,
                   4.0 * leaseSeconds);
      config.distributed.speculativeAfterSeconds =
          std::min(config.distributed.speculativeAfterSeconds, leaseSeconds);
    }
    if (maxExpiries >= 0) {
      config.distributed.maxLeaseExpiries = maxExpiries;
    }
    config.distributed.chaos = chaos;
    config.distributed.onListening = [](int port) {
      // The smoke script scrapes this line for the ephemeral port.
      std::printf("coordinator listening on port %d\n", port);
      std::fflush(stdout);
    };
  }

  std::printf("Sweeping %s on %s ...\n",
              workloads::workloadName(workload.program, workload.problemClass)
                  .c_str(),
              config.machine.name.c_str());
  const analysis::SweepResult sweep = analysis::runSweep(config);
  if (sweep.restoredRuns > 0) {
    std::printf("(%u runs restored from checkpoint)\n",
                static_cast<unsigned>(sweep.restoredRuns));
  }
  if (sweep.dist.used) {
    std::printf("fleet: %zu worker(s) seen, %zu task(s) completed remotely, "
                "%llu re-dispatch(es), %llu speculative, %llu duplicate(s) "
                "discarded%s\n",
                sweep.dist.workersSeen, sweep.dist.fleetCompleted,
                static_cast<unsigned long long>(sweep.dist.leases.redispatches),
                static_cast<unsigned long long>(
                    sweep.dist.leases.speculativeLeases),
                static_cast<unsigned long long>(
                    sweep.dist.leases.duplicatesDiscarded),
                sweep.dist.degradedToLocal ? " (degraded to local pool)" : "");
    if (!sweep.dist.error.empty()) {
      std::printf("fleet error: %s\n", sweep.dist.error.c_str());
    }
  }
  if (sweep.stopped) {
    // Graceful Ctrl-C: completed runs are checkpointed (with --checkpoint);
    // rerunning the same command resumes where this one stopped.
    std::printf("%s\n", sweep.diagnostics().c_str());
    if (!checkpointPath.empty()) {
      std::printf("checkpoint flushed to %s — rerun to resume\n",
                  checkpointPath.c_str());
    }
    return 130;  // conventional SIGINT exit
  }
  if (!csvPath.empty()) {
    const std::string csv = analysis::sweepToCsv(sweep);
    std::FILE* out = std::fopen(csvPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csvPath.c_str());
      return 1;
    }
    std::fwrite(csv.data(), 1, csv.size(), out);
    std::fclose(out);
    // The fingerprint is what the distributed smoke test compares across
    // fleet shapes: same bytes <=> same crc.
    std::printf("csv fingerprint: %08x (%s)\n", crc32(csv), csvPath.c_str());
  }
  if (!sweep.failures.empty()) {
    std::printf("%s\n", sweep.diagnostics().c_str());
    if (!sweep.pendingCoreCounts().empty()) {
      // Timed-out or failed core counts leave holes the fit below would
      // trip over; the completed subset was still reported faithfully.
      return 1;
    }
  }

  // Fit from the paper's regression inputs for this machine shape.
  const model::MachineShape shape = model::shapeOf(config.machine);
  const auto fitCores = model::defaultFitCores(shape);
  const auto fitPoints = analysis::pointsAt(sweep, fitCores);
  const auto fitted = model::ContentionModel::tryFit(shape, fitPoints);
  if (!fitted) {
    std::fprintf(stderr, "error: model fit failed: %s\n",
                 fitted.error().describe().c_str());
    return 1;
  }
  const model::ContentionModel& m = *fitted;

  const auto allPoints = sweep.points();
  const model::ValidationReport report = model::validate(m, allPoints);

  std::printf("\n%6s  %12s  %12s  %9s  %9s  %8s\n", "cores", "measured C(n)",
              "model C(n)", "omega(m)", "omega(p)", "relerr");
  for (const model::ValidationRow& row : report.rows) {
    std::printf("%6d  %13.4e  %12.4e  %9.3f  %9.3f  %7.1f%%\n", row.cores,
                row.measuredCycles, row.predictedCycles, row.measuredOmega,
                row.predictedOmega, 100.0 * row.relativeError);
  }
  std::printf("\nmean relative error: %.1f%%  (paper reports 5-14%% for "
              "high-contention programs)\n",
              100.0 * report.meanRelativeError);

  const auto& profile1 = sweep.at(1);
  const auto& profileN = sweep.profiles.back();
  std::printf("\nwork cycles:  C(1) %llu -> C(max) %llu (should stay flat)\n",
              static_cast<unsigned long long>(profile1.counters.workCycles()),
              static_cast<unsigned long long>(profileN.counters.workCycles()));
  std::printf("LLC misses :  C(1) %llu -> C(max) %llu\n",
              static_cast<unsigned long long>(profile1.counters.llcMisses),
              static_cast<unsigned long long>(profileN.counters.llcMisses));
  return 0;
}
