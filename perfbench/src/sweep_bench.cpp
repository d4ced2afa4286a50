// Paper-sweep workloads: one analysis::runSweep call is the unit of work.
// Untraced runs time whole sweeps; traced runs split a sweep into layers
// with the profiler's sim.run phase, per-core-count spans from
// SweepConfig::beforeRun, and the replays of replay.hpp.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <thread>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "bench.hpp"
#include "common/crc32.hpp"
#include "core/contention_model.hpp"
#include "obs/profiler.hpp"
#include "hostref.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "topology/presets.hpp"
#include "topology/topology_map.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

/// Ops kept for the cache and memory replays (16 bytes each). Longer runs
/// are replayed on their first kCaptureOps ops and scaled by rate.
constexpr std::size_t kCaptureOps = 8'000'000;

/// Instance builds behind workloads.build_ms.
constexpr int kSetupRepeats = 15;

/// Instance builds per timed set-up batch behind setup_s, and batches
/// before a replica's first sweep.
constexpr int kSetupBatch = 10;
constexpr int kFirstSetupBatches = 3;

/// Concurrent serial sweeps in an untraced run, for more samples per run.
constexpr int kReplicas = 3;

/// Host time of the reference workload (hostref.hpp) that untraced sweep
/// times are scaled to. Other tenants of a shared host slow the simulator
/// by up to 1.5x for seconds at a time; the reference, timed on the same
/// thread before every core count and after the last, slows with it.
constexpr double kNominalReferenceS = 0.025;

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

struct SweepRun {
  double wallS = 0.0;  ///< without the reference workload's time
  /// Untraced runs only: mean time of the reference workload around the
  /// sweep's core counts, and wallS scaled to kNominalReferenceS.
  double referenceS = 0.0;
  double scaledS = 0.0;
  std::uint32_t fingerprint = 0;
  occm::analysis::SweepResult result;
  // Traced runs only: sim.run wall time per core count and in total.
  std::map<int, double> simRunS;
  double simRunTotalS = 0.0;
};

/// Runs and times one sweep. A traced sweep attaches the profiler and
/// records an analysis span per core count with its sim.run child; an
/// untraced one times the reference workload between its core counts.
SweepRun timeSweep(const SweepCase& c, bool traced, SpanRecorder& spans) {
  occm::analysis::SweepConfig config;
  config.machine = c.machine;
  config.workload = c.spec;
  config.coreCounts = c.coreCounts;
  config.parallel.workers = 1;  // measure the simulator, not the pool

  SweepRun run;
  occm::obs::Profiler profiler;
  occm::obs::Phase* simRun = nullptr;
  std::int64_t root = -1;
  std::int64_t runSpan = -1;
  int openCores = 0;
  std::uint64_t simRunSeenNs = 0;
  // Serial sweeps call beforeRun on this thread, so the sim.run total
  // grows by exactly the previous core count's run between two calls.
  auto closeRun = [&]() {
    if (openCores == 0) {
      return;
    }
    const std::uint64_t total = simRun->snapshot().wallNs;
    const std::uint64_t ns = total - simRunSeenNs;
    simRunSeenNs = total;
    run.simRunS[openCores] += static_cast<double>(ns) / 1e9;
    const std::uint64_t end = spans.nowNs();
    spans.add("sim.run", end > ns ? end - ns : 0, end, runSpan);
    spans.finish(runSpan);
    openCores = 0;
  };
  if (traced) {
    config.sim.profiler = &profiler;
    simRun = &profiler.phase("sim.run");
    root = spans.open("analysis.runSweep");
    config.beforeRun = [&](int cores, int) {
      closeRun();
      openCores = cores;
      runSpan = spans.open("analysis.run_cores_" + std::to_string(cores),
                           root);
    };
  }
  double referenceTotalS = 0.0;
  int referenceSamples = 0;
  auto sampleHost = [&] {
    referenceTotalS += timeHostReference();
    ++referenceSamples;
  };
  if (!traced) {
    config.beforeRun = [&](int, int) { sampleHost(); };
  }
  const auto start = Clock::now();
  run.result = occm::analysis::runSweep(config);
  if (!traced) {
    sampleHost();
  }
  run.wallS = secondsSince(start) - referenceTotalS;
  if (!traced) {
    run.referenceS = referenceTotalS / referenceSamples;
    run.scaledS = run.wallS * kNominalReferenceS / run.referenceS;
  }
  if (traced) {
    closeRun();
    spans.finish(root);
    for (const auto& [cores, s] : run.simRunS) {
      run.simRunTotalS += s;
    }
  }
  run.fingerprint = occm::crc32(occm::analysis::sweepToCsv(run.result));
  return run;
}

/// Empty when the sweep completed every core count without a failed run.
std::string checkSweep(const SweepCase& c,
                       const occm::analysis::SweepResult& r) {
  if (r.stopped || !r.failures.empty() || !r.pendingCoreCounts().empty() ||
      r.profiles.size() != c.coreCounts.size()) {
    return "sweep incomplete: " + r.diagnostics();
  }
  return {};
}

/// Runs `timeSweep` and its output checks, counting the sweep as one unit
/// of work. Returns true when the sweep passed.
bool checkedSweep(const SweepCase& c, const SweepRun& run,
                  std::optional<std::uint32_t>& reference,
                  bool recordFingerprint, RunResult& r) {
  ++r.attempted;
  std::string why = checkSweep(c, run.result);
  if (why.empty() && reference.has_value() &&
      *reference != run.fingerprint) {
    why = "sweep CSV fingerprint " + hex32(run.fingerprint) +
          " differs from this run's first sweep " + hex32(*reference);
    ++r.wrong;
  }
  if (!reference.has_value()) {
    reference = run.fingerprint;
  }
  if (recordFingerprint) {
    r.fingerprints.push_back(hex32(run.fingerprint));
  }
  if (!why.empty()) {
    ++r.failed;
    r.noteFailure(why);
    return false;
  }
  return true;
}

/// One untraced replica: serial sweeps until the deadline, each after a
/// timed set-up batch (kFirstSetupBatches before the first).
struct Replica {
  RunResult checks;  ///< attempted, failed, wrong, failures, fingerprints
  std::vector<double> setupS;   ///< per instance build, scaled as below
  std::vector<double> wallS;    ///< SweepRun::wallS of the passing sweeps
  std::vector<double> scaledS;  ///< SweepRun::scaledS of the same sweeps
  std::vector<double> referenceS;
  double opsPerSweep = 0.0;
  std::optional<occm::analysis::SweepResult> lastGood;
  std::exception_ptr error;
};

/// Set-up: building the grid's workload instance, the work done before a
/// sweep. Timed in batches, between two timings of the reference workload,
/// and scaled to kNominalReferenceS like the sweeps.
double timeSetUp(const SweepCase& c, Replica& replica) {
  const double before = timeHostReference();
  const auto start = Clock::now();
  for (int k = 0; k < kSetupBatch; ++k) {
    const occm::workloads::WorkloadInstance instance =
        occm::workloads::makeWorkload(c.spec);
    replica.opsPerSweep = static_cast<double>(instance.totalOps) *
                          static_cast<double>(c.coreCounts.size());
  }
  const double buildS = secondsSince(start) / kSetupBatch;
  const double after = timeHostReference();
  return buildS * kNominalReferenceS / (0.5 * (before + after));
}

void runReplica(const SweepCase& c, Clock::time_point deadline,
                SpanRecorder& spans, Replica& replica) {
  try {
    std::optional<std::uint32_t> reference;
    for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
      for (int b = 0; b < (i == 0 ? kFirstSetupBatches : 1); ++b) {
        replica.setupS.push_back(timeSetUp(c, replica));
      }
      SweepRun run = timeSweep(c, false, spans);
      replica.referenceS.push_back(run.referenceS);
      if (checkedSweep(c, run, reference, true, replica.checks)) {
        replica.wallS.push_back(run.wallS);
        replica.scaledS.push_back(run.scaledS);
        replica.lastGood = std::move(run.result);
      }
    }
  } catch (...) {
    replica.error = std::current_exception();
  }
}

/// ValidationReport::meanRelativeError (percent) of the model fitted on
/// the fit cores, against every measured core count; NaN if the fit fails.
double modelErrorPct(const SweepCase& c, const occm::analysis::SweepResult& r,
                     RunResult& result) {
  const auto fitted = occm::model::ContentionModel::tryFit(
      occm::model::shapeOf(c.machine),
      occm::analysis::pointsAt(r, c.fitCores));
  if (!fitted) {
    ++result.failed;
    result.noteFailure("model fit failed: " + fitted.error().describe());
    return std::nan("");
  }
  return 100.0 * occm::model::validate(*fitted, r.points()).meanRelativeError;
}

/// core.fit_us and core.predict_ns: ContentionModel::tryFit and
/// predictCycles timed in batches, median per call.
void timeModelLayer(const SweepCase& c, const occm::analysis::SweepResult& r,
                    SpanRecorder& spans, RunResult& result) {
  const occm::model::MachineShape shape = occm::model::shapeOf(c.machine);
  const std::vector<occm::model::MeasuredPoint> points =
      occm::analysis::pointsAt(r, c.fitCores);
  std::optional<occm::model::ContentionModel> fitted;
  {
    const ScopedSpan span(spans, "core.tryFit");
    auto m = occm::model::ContentionModel::tryFit(shape, points);
    if (m) {
      fitted = *m;
    }
  }
  if (!fitted) {
    return;  // modelErrorPct already reported the failure
  }
  {
    const ScopedSpan span(spans, "core.validate");
    (void)occm::model::validate(*fitted, r.points());
  }
  constexpr int kBatches = 7;
  constexpr int kPerBatch = 200;
  const int total = shape.totalCores();
  volatile double sink = 0.0;
  std::vector<double> fitUs;
  std::vector<double> predictNs;
  for (int b = 0; b < kBatches; ++b) {
    auto start = Clock::now();
    for (int k = 0; k < kPerBatch; ++k) {
      const auto m = occm::model::ContentionModel::tryFit(shape, points);
      sink = sink + (m ? m->measuredC1() : 0.0);
    }
    fitUs.push_back(secondsSince(start) / kPerBatch * 1e6);
    start = Clock::now();
    double acc = 0.0;
    for (int k = 0; k < kPerBatch; ++k) {
      for (int n = 1; n <= total; ++n) {
        acc += fitted->predictCycles(n);
      }
    }
    sink = sink + acc;
    predictNs.push_back(secondsSince(start) / (kPerBatch * total) * 1e9);
  }
  result.set("core.fit_us", median(fitUs), "us", fitUs.size());
  result.set("core.predict_ns", median(predictNs), "ns", predictNs.size());
}

}  // namespace

std::optional<SweepCase> sweepCaseFor(const std::string& name,
                                      std::uint64_t workloadSeed) {
  using occm::workloads::ProblemClass;
  using occm::workloads::Program;
  SweepCase c;
  if (name == "cg-c-numa24") {
    c.machine = occm::topology::intelNuma24();
    c.spec.program = Program::kCG;
    c.spec.problemClass = ProblemClass::kC;
    c.coreCounts = {1, 2, 6, 12, 13, 18, 24};
  } else if (name == "sp-b-amd48") {
    c.machine = occm::topology::amdNuma48();
    c.spec.program = Program::kSP;
    c.spec.problemClass = ProblemClass::kB;
    c.coreCounts = {24, 48};  // plus the fit cores, below
  } else if (name == "sp-a-amd48") {
    c.machine = occm::topology::amdNuma48();
    c.spec.program = Program::kSP;
    c.spec.problemClass = ProblemClass::kA;
    c.coreCounts = {24, 48};
  } else if (name == "cg-w-numa24") {
    c.machine = occm::topology::intelNuma24();
    c.spec.program = Program::kCG;
    c.spec.problemClass = ProblemClass::kW;
    c.coreCounts = {1, 2, 12, 13, 24};
  } else {
    return std::nullopt;
  }
  c.spec.threads = c.machine.logicalCores();
  c.spec.seed = workloadSeed;
  c.fitCores = occm::model::defaultFitCores(occm::model::shapeOf(c.machine));
  c.coreCounts.insert(c.coreCounts.end(), c.fitCores.begin(),
                      c.fitCores.end());
  std::sort(c.coreCounts.begin(), c.coreCounts.end());
  c.coreCounts.erase(std::unique(c.coreCounts.begin(), c.coreCounts.end()),
                     c.coreCounts.end());
  return c;
}

void runSweepWorkload(const SweepCase& c, const BenchOptions& options,
                      SpanRecorder& spans, RunResult& r) {
  if (options.traced) {
    measureSweepLayers(c, options.seconds, true, spans, r);
    setServingLayersOffPath(r);
    return;
  }
  // kReplicas threads each run serial sweeps back to back until the
  // deadline, every one with its own set-up and output checks.
  std::vector<Replica> replicas(kReplicas);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  {
    std::vector<std::thread> threads;
    for (Replica& replica : replicas) {
      threads.emplace_back(
          [&] { runReplica(c, deadline, spans, replica); });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  std::vector<double> setupS;
  std::vector<double> wallS;
  std::vector<double> scaledS;
  std::vector<double> referenceS;
  double ops = 0.0;
  const std::string firstFingerprint =
      replicas.front().checks.fingerprints.empty()
          ? std::string()
          : replicas.front().checks.fingerprints.front();
  for (Replica& replica : replicas) {
    if (replica.error) {
      std::rethrow_exception(replica.error);
    }
    const RunResult& checks = replica.checks;
    r.attempted += checks.attempted;
    r.failed += checks.failed;
    r.wrong += checks.wrong;
    for (const std::string& why : checks.failures) {
      r.noteFailure(why);
    }
    r.fingerprints.insert(r.fingerprints.end(), checks.fingerprints.begin(),
                          checks.fingerprints.end());
    if (!checks.fingerprints.empty() &&
        checks.fingerprints.front() != firstFingerprint) {
      ++r.failed;
      ++r.wrong;
      r.noteFailure("replicas disagree: sweep CSV fingerprint " +
                    checks.fingerprints.front() + " against " +
                    firstFingerprint);
    }
    setupS.insert(setupS.end(), replica.setupS.begin(), replica.setupS.end());
    wallS.insert(wallS.end(), replica.wallS.begin(), replica.wallS.end());
    scaledS.insert(scaledS.end(), replica.scaledS.begin(),
                   replica.scaledS.end());
    referenceS.insert(referenceS.end(), replica.referenceS.begin(),
                      replica.referenceS.end());
    ops += replica.opsPerSweep * static_cast<double>(replica.wallS.size());
  }
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) {
      total += x;
    }
    return total;
  };
  const Replica& first = replicas.front();
  const double errPct =
      first.lastGood ? modelErrorPct(c, *first.lastGood, r) : std::nan("");
  const double scaledP50 = scaledS.empty() ? std::nan("") : median(scaledS);
  r.set("setup_s", median(setupS), "s", setupS.size());
  r.set("latency_ms", scaledP50 * 1e3, "ms", scaledS.size());
  r.set("throughput_per_s", ratio(ops, sum(scaledS)), "1/s", scaledS.size());

  r.figure("sweep_s_p50", wallS.empty() ? std::nan("") : median(wallS), "s",
           wallS.size());
  r.figure("sim_mops_per_s", ratio(ops, sum(wallS)) / 1e6, "Mops/s",
           wallS.size());
  r.figure("host_reference_ms", median(referenceS) * 1e3, "ms",
           referenceS.size());
  r.figure("replicas", kReplicas, "count");
  r.figure("model_err_pct", errPct, "%", 1);
  r.figure("fail_ratio", ratio(r.failed, r.attempted), "ratio", r.attempted);
  if (r.workload == "cg-c-numa24") {
    r.notes.push_back(
        "model_err_pct: the paper reports about 11% for CG.C on Intel NUMA");
  } else {
    r.notes.push_back("model_err_pct: no paper figure for this case");
  }
}

void measureSweepLayers(const SweepCase& c, double seconds,
                        bool recordFingerprints, SpanRecorder& spans,
                        RunResult& r) {
  std::vector<double> buildMs;
  std::uint64_t opsPerRun = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const ScopedSpan span(spans, "workloads.makeWorkload");
    const auto start = Clock::now();
    const occm::workloads::WorkloadInstance instance =
        occm::workloads::makeWorkload(c.spec);
    buildMs.push_back(secondsSince(start) * 1e3);
    opsPerRun = instance.totalOps;
  }

  // Untraced and traced sweeps alternate, at least one of each.
  const int maxCores = c.coreCounts.back();
  std::vector<double> tracedWall;
  std::vector<double> untracedWall;
  std::vector<double> simRunTotal;
  std::vector<double> simRunAtMax;
  std::vector<double> overheadS;
  std::optional<std::uint32_t> reference;
  std::optional<occm::analysis::SweepResult> lastGood;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (int i = 0; i < 2 || Clock::now() < deadline; ++i) {
    const bool traced = i % 2 == 1;
    SweepRun run = timeSweep(c, traced, spans);
    if (!checkedSweep(c, run, reference, recordFingerprints, r)) {
      continue;
    }
    if (traced) {
      tracedWall.push_back(run.wallS);
      simRunTotal.push_back(run.simRunTotalS);
      simRunAtMax.push_back(run.simRunS[maxCores]);
      overheadS.push_back(run.wallS - run.simRunTotalS);
    } else {
      untracedWall.push_back(run.wallS);
    }
    lastGood = std::move(run.result);
  }
  if (!lastGood || tracedWall.empty()) {
    r.noteFailure("no traced sweep completed; no layer split");
    return;
  }

  // Capture the op stream of the largest core count's run, as consumed.
  const occm::topology::TopologyMap topo(c.machine);
  CaptureLog log(std::min<std::size_t>(kCaptureOps, opsPerRun));
  occm::perf::RunProfile profile;
  {
    occm::workloads::WorkloadInstance instance =
        occm::workloads::makeWorkload(c.spec);
    const auto streams = wrapForCapture(instance, log);
    occm::sim::MachineSim sim(c.machine, occm::sim::SimConfig{});
    const ScopedSpan span(spans, "sim.capture_run");
    profile = sim.run(streams, maxCores, instance.name);
  }
  // Output check: capturing must not change the simulated run.
  const occm::perf::RunProfile& swept = lastGood->at(maxCores);
  if (profile.counters.totalCycles != swept.counters.totalCycles ||
      profile.counters.llcMisses != swept.counters.llcMisses) {
    ++r.failed;
    ++r.wrong;
    r.noteFailure("the captured run differs from the sweep's run at " +
                  std::to_string(maxCores) + " cores");
  }

  StreamReplay streamReplay;
  {
    occm::workloads::WorkloadInstance instance =
        occm::workloads::makeWorkload(c.spec);
    const ScopedSpan span(spans, "workloads.drain");
    streamReplay = replayStreams(instance);
  }
  if (streamReplay.ops != opsPerRun || log.seen() != opsPerRun) {
    ++r.failed;
    ++r.wrong;
    r.noteFailure("stream op counts disagree: drained " +
                  std::to_string(streamReplay.ops) + ", captured " +
                  std::to_string(log.seen()) + ", built " +
                  std::to_string(opsPerRun));
  }
  CacheReplay cacheReplay;
  {
    const ScopedSpan span(spans, "cache.replay");
    cacheReplay = replayCache(topo, c.spec.threads, maxCores, log.ops());
  }
  MemReplay memReplay;
  {
    const ScopedSpan span(spans, "mem.replay");
    memReplay = replayMemory(topo, occm::sim::SimConfig{}, maxCores,
                             cacheReplay.offChipStream, profile.makespan,
                             log.seen());
  }

  // Deterministic work counts of one sweep.
  std::uint64_t requests = 0;
  std::uint64_t memWritebacks = 0;
  std::uint64_t remote = 0;
  std::uint64_t rowHits = 0;
  std::uint64_t rowMisses = 0;
  std::uint64_t totalWait = 0;
  std::uint64_t reservations = 0;
  std::uint64_t events = 0;
  std::uint64_t maxDepth = 0;
  std::uint64_t coherence = 0;
  std::uint64_t writebacks = 0;
  double utilMax = 0.0;
  for (const occm::perf::RunProfile& p : lastGood->profiles) {
    for (std::size_t n = 0; n < p.controllerStats.size(); ++n) {
      const occm::mem::ControllerStats& s = p.controllerStats[n];
      requests += s.requests;
      memWritebacks += s.writebacks;
      remote += s.remoteRequests;
      rowHits += s.rowHits;
      rowMisses += s.rowMisses;
      totalWait += s.totalWait;
      utilMax = std::max(utilMax, p.controllerUtilization(n));
    }
    reservations += p.hotPath.controllerTicks;
    events += p.hotPath.eventsPopped;
    maxDepth = std::max(maxDepth, p.hotPath.maxEventQueueDepth);
    coherence += p.coherenceMisses;
    writebacks += p.writebacks;
  }
  std::uint64_t runTransfers = 0;
  for (const occm::mem::ControllerStats& s : profile.controllerStats) {
    runTransfers += s.requests + s.writebacks;
  }

  const double opsPerSweep =
      static_cast<double>(opsPerRun) * static_cast<double>(c.coreCounts.size());
  const double nsPerOp = ratio(streamReplay.seconds * 1e9,
                               static_cast<double>(streamReplay.ops));
  const double nsPerAccess = ratio(cacheReplay.seconds * 1e9,
                                   static_cast<double>(cacheReplay.accesses));
  const std::uint64_t replayTransfers =
      memReplay.requests + memReplay.writebacks;
  const double nsPerTransfer =
      ratio(memReplay.seconds * 1e9, static_cast<double>(replayTransfers));
  const LayerAccounting split =
      accountLayers(median(simRunAtMax), nsPerOp, nsPerAccess, nsPerTransfer,
                    log.seen(), runTransfers);
  const double runMissRatio = ratio(profile.counters.llcMisses, log.seen());
  const double replayMissRatio =
      ratio(cacheReplay.offChip, cacheReplay.accesses);
  const double simRunS = median(simRunTotal);

  r.set("workloads.ops", opsPerSweep, "count");
  r.set("workloads.build_ms", median(buildMs), "ms", buildMs.size());
  r.set("workloads.ns_per_op", nsPerOp, "ns", streamReplay.ops);
  r.set("cache.ns_per_access", nsPerAccess, "ns", cacheReplay.accesses);
  r.set("cache.accesses", static_cast<double>(cacheReplay.accesses), "count");
  r.set("cache.l1_hit_ratio", ratio(cacheReplay.l1Hits, cacheReplay.accesses),
        "ratio", cacheReplay.accesses);
  r.set("cache.l2_hit_ratio", ratio(cacheReplay.l2Hits, cacheReplay.l2Lookups),
        "ratio", cacheReplay.l2Lookups);
  r.set("cache.llc_miss_ratio", replayMissRatio, "ratio",
        cacheReplay.accesses);
  r.set("cache.coherence_misses", static_cast<double>(coherence), "count");
  r.set("cache.writebacks", static_cast<double>(writebacks), "count");
  r.set("cache.replay_llc_gap_pct",
        100.0 * ratio(replayMissRatio - runMissRatio, runMissRatio), "%");
  r.set("mem.ns_per_request", nsPerTransfer, "ns", replayTransfers);
  r.set("mem.requests", static_cast<double>(requests), "count");
  r.set("mem.writebacks", static_cast<double>(memWritebacks), "count");
  r.set("mem.remote_ratio", ratio(remote, requests), "ratio", requests);
  r.set("mem.row_hit_ratio", ratio(rowHits, rowHits + rowMisses), "ratio",
        rowHits + rowMisses);
  r.set("mem.wait_cycles_mean", ratio(totalWait, requests), "cycles",
        requests);
  r.set("mem.util_max", utilMax, "ratio");
  r.set("mem.reservation_ops", static_cast<double>(reservations), "count");
  r.set("sim.run_s", simRunS, "s", simRunTotal.size());
  r.set("sim.events_popped", static_cast<double>(events), "count");
  r.set("sim.events_per_op", ratio(static_cast<double>(events), opsPerSweep),
        "events/op");
  r.set("sim.max_queue_depth", static_cast<double>(maxDepth), "count");
  r.set("sim.ns_per_event", ratio(simRunS * 1e9, static_cast<double>(events)),
        "ns", simRunTotal.size());
  r.set("sim.residual_pct", split.residualPct(), "%", simRunAtMax.size());
  r.set("analysis.overhead_s", median(overheadS), "s", overheadS.size());
  r.set("trace.overhead_pct",
        100.0 * (ratio(median(tracedWall), median(untracedWall)) - 1.0), "%",
        std::min(tracedWall.size(), untracedWall.size()));
  timeModelLayer(c, *lastGood, spans, r);
  r.set("core.model_err_pct", modelErrorPct(c, *lastGood, r), "%");

  r.figure("split.cores", maxCores, "count");
  r.figure("split.sim_run_s", split.simRunS, "s", simRunAtMax.size());
  r.figure("split.workloads_s", split.workloadsS, "s");
  r.figure("split.cache_s", split.cacheS, "s");
  r.figure("split.mem_s", split.memS, "s");
  r.figure("split.residual_s", split.residualS, "s");
  r.figure("split.captured_ops", static_cast<double>(log.ops().size()),
           "count");
  r.figure("split.run_ops", static_cast<double>(log.seen()), "count");
}

}  // namespace perfbench
