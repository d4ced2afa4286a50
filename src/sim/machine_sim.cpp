#include "sim/machine_sim.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/error.hpp"
#include "common/fastdiv.hpp"
#include "common/rng.hpp"
#include "fault/crash_injection.hpp"
#include "fault/fault_engine.hpp"
#include "obs/time_series.hpp"
#include "sim/event_queue.hpp"

namespace occm::sim {

namespace {

struct CoreState {
  sched::RunQueue queue{{}};
  bool active = false;
  bool done = false;
  Cycles now = 0;
  Cycles quantumEnd = 0;
  // Pending off-chip access (set between kAdvance and kIssue).
  Addr pendingAddr = 0;
  bool pendingPrefetchable = false;
  bool pendingCoherence = false;
  bool pendingWriteback = false;
  Addr pendingWritebackLine = 0;
  // Counters.
  Cycles workCycles = 0;
  Cycles stallCycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llcMisses = 0;
  std::uint64_t coherenceMisses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t contextSwitches = 0;
};

/// Observability adapter of one run: receives the memory system's
/// per-transfer callbacks and exposes the per-core/machine-wide series the
/// event loop records into. All pointers are null when metrics are off, so
/// hook sites reduce to a null test.
class RunObserver final : public mem::MemoryObserver {
 public:
  RunObserver(obs::RunTrace& trace, const obs::ObsConfig& config,
              int controllers, int totalCores)
      : trace_(trace), metricsOn_(config.metrics), eventsOn_(config.trace) {
    work.resize(static_cast<std::size_t>(totalCores), nullptr);
    stall.resize(static_cast<std::size_t>(totalCores), nullptr);
    if (!metricsOn_) {
      return;
    }
    llcMisses = &trace_.metrics.counter("sim.llc_misses", "lines/window");
    ctxSwitches =
        &trace_.metrics.counter("sched.ctx_switches", "switches/window");
    nodes_.reserve(static_cast<std::size_t>(controllers));
    for (NodeId n = 0; n < controllers; ++n) {
      const std::string p = "mem.node" + std::to_string(n) + ".";
      nodes_.push_back(NodeSeries{
          &trace_.metrics.counter(p + "requests", "transfers/window"),
          &trace_.metrics.counter(p + "busy", "cycles/window"),
          &trace_.metrics.counter(p + "row_hits", "hits/window"),
          &trace_.metrics.counter(p + "row_misses", "misses/window"),
          &trace_.metrics.gauge(p + "queue_wait", "cycles"),
          &trace_.metrics.gauge(p + "backlog", "cycles"),
      });
    }
  }

  /// Registers the work/stall split series of one active core.
  void openCore(CoreId core) {
    if (!metricsOn_) {
      return;
    }
    const std::string p = "core" + std::to_string(core) + ".";
    work[static_cast<std::size_t>(core)] =
        &trace_.metrics.counter(p + "work", "cycles/window");
    stall[static_cast<std::size_t>(core)] =
        &trace_.metrics.counter(p + "stall", "cycles/window");
  }

  void onTransfer(const mem::RequestObservation& o) override {
    if (metricsOn_) {
      NodeSeries& n = nodes_[static_cast<std::size_t>(o.node)];
      n.requests->record(o.arrival);
      n.busy->record(o.start, static_cast<double>(o.service));
      (o.rowHit ? n.rowHits : n.rowMisses)->record(o.start);
      if (!o.writeback) {
        n.queueWait->record(o.arrival, static_cast<double>(o.queueWait));
      }
      n.backlog->record(o.arrival, static_cast<double>(o.start - o.arrival));
    }
    if (eventsOn_) {
      trace_.events.span(o.writeback ? "writeback" : "service", "mem",
                         obs::kControllerTrackBase + o.node, o.start,
                         o.service, "queue_wait",
                         static_cast<double>(o.queueWait));
    }
  }

  /// Derives per-window controller utilization gauges from the busy
  /// counters; call after metrics are finalized to the run's makespan.
  void deriveUtilization(int channelsPerController) {
    if (!metricsOn_ || channelsPerController <= 0) {
      return;
    }
    const Cycles window = trace_.metrics.windowCycles();
    const double capacity = static_cast<double>(window) *
                            static_cast<double>(channelsPerController);
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const obs::TimeSeries* busy = nodes_[n].busy;
      obs::TimeSeries& util = trace_.metrics.gauge(
          "mem.node" + std::to_string(n) + ".utilization", "fraction");
      for (std::size_t i = 0; i < busy->windowCount(); ++i) {
        util.record(busy->windowStart(i), busy->sum(i) / capacity);
      }
    }
  }

  [[nodiscard]] bool metricsOn() const noexcept { return metricsOn_; }
  [[nodiscard]] bool eventsOn() const noexcept { return eventsOn_; }

  // Per-core series, indexed by CoreId; null for inactive cores or when
  // metrics are off.
  std::vector<obs::TimeSeries*> work;
  std::vector<obs::TimeSeries*> stall;
  obs::TimeSeries* llcMisses = nullptr;
  obs::TimeSeries* ctxSwitches = nullptr;

 private:
  struct NodeSeries {
    obs::TimeSeries* requests;
    obs::TimeSeries* busy;
    obs::TimeSeries* rowHits;
    obs::TimeSeries* rowMisses;
    obs::TimeSeries* queueWait;
    obs::TimeSeries* backlog;
  };

  obs::RunTrace& trace_;
  bool metricsOn_;
  bool eventsOn_;
  std::vector<NodeSeries> nodes_;
};

}  // namespace

MachineSim::MachineSim(topology::MachineSpec spec, SimConfig config)
    : topo_(std::move(spec)), config_(config) {}

perf::RunProfile MachineSim::run(std::span<const trace::RefStreamPtr> streams,
                                 int activeCores,
                                 const std::string& programName) {
  const auto& spec = topo_.spec();
  OCCM_REQUIRE_MSG(!streams.empty(), "need at least one thread");
  OCCM_REQUIRE_MSG(activeCores >= 1 && activeCores <= spec.logicalCores(),
                   "active cores out of range");

  for (const trace::RefStreamPtr& s : streams) {
    OCCM_REQUIRE_MSG(s != nullptr, "null thread stream");
    s->reset();
  }

  const int threads = static_cast<int>(streams.size());
  const sched::Pinning pinning =
      sched::pinRoundRobin(topo_, threads, activeCores);

  cache::CacheHierarchy hierarchy(topo_);
  // The run seed perturbs the memory system's service jitter too, so two
  // sims with different seeds produce genuinely different runs.
  mem::MemoryConfig memoryConfig = config_.memory;
  memoryConfig.seed ^= config_.seed * 0x9e3779b97f4a7c15ULL;
  const std::vector<NodeId> activeNodes = topo_.activeNodes(activeCores);
  std::vector<int> nodeWeights;
  nodeWeights.reserve(activeNodes.size());
  for (NodeId node : activeNodes) {
    int weight = 0;
    for (CoreId c : topo_.activeCores(activeCores)) {
      weight += topo_.homeNode(c) == node ? 1 : 0;
    }
    nodeWeights.push_back(weight);
  }
  mem::MemorySystem memory(topo_, memoryConfig, activeNodes,
                           std::move(nodeWeights));
  Rng rng = Rng::substream(config_.seed, 0x5EDC0FFEEULL);

  // Fault scenario: compile the plan (validating it against this machine
  // and the run's active controllers); an empty plan leaves `fe` null so
  // the hot loops pay one predictable branch.
  fault::FaultEngine faultEngine(config_.faultPlan, topo_, activeNodes,
                                 config_.seed);
  fault::FaultEngine* const fe = faultEngine.idle() ? nullptr : &faultEngine;

  const Cycles samplerWindow = std::max<Cycles>(
      1, nsToCycles(config_.samplerWindowNs, spec.clockGhz));
  // The paper's fine-grained LLC-miss sampler (section III-B.2): requested
  // lines per window; the window sums are Figure 4's burst sizes.
  obs::TimeSeries missSeries(samplerWindow);

  const int totalCores = spec.logicalCores();
  std::vector<CoreState> cores(static_cast<std::size_t>(totalCores));

  // Observability: build the run trace and attach the memory observer.
  // `obs` stays disengaged (null) unless requested — and when
  // OCCM_OBS_ENABLED=0 the constant-false `enabled()` lets the compiler
  // drop every hook below.
  obs::RunTracePtr runTrace;
  std::optional<RunObserver> hooks;
  if (config_.observability.enabled()) {
    const Cycles obsWindow = std::max<Cycles>(
        1, nsToCycles(config_.observability.windowNs, spec.clockGhz));
    runTrace = std::make_shared<obs::RunTrace>(
        obsWindow, config_.observability.traceCapacity, spec.clockGhz);
    hooks.emplace(*runTrace, config_.observability, memory.controllers(),
                  totalCores);
    memory.setObserver(&*hooks);
    const std::vector<std::string> labels =
        sched::describePinning(pinning, topo_);
    for (CoreId c = 0; c < totalCores; ++c) {
      if (!pinning.threadsOn[static_cast<std::size_t>(c)].empty()) {
        hooks->openCore(c);
        runTrace->events.setTrackName(c,
                                      labels[static_cast<std::size_t>(c)]);
      }
    }
    for (NodeId n = 0; n < memory.controllers(); ++n) {
      runTrace->events.setTrackName(obs::kControllerTrackBase + n,
                                    "memory controller " + std::to_string(n));
    }
    if (hooks->eventsOn()) {
      for (ThreadId t = 0; t < threads; ++t) {
        runTrace->events.instant(
            "pin thread " + std::to_string(t), "sched",
            pinning.pinnedCore[static_cast<std::size_t>(t)], 0);
      }
      // Fault windows are known upfront; emit them as spans so the
      // degraded epochs line up under the affected track in the timeline.
      for (const fault::FaultEvent& e : config_.faultPlan.events()) {
        const std::int32_t track =
            e.kind == fault::FaultKind::kCoreThrottle
                ? e.target
                : obs::kControllerTrackBase + e.target;
        runTrace->events.span(
            std::string("fault:") + fault::toString(e.kind), "fault", track,
            e.start, e.end - e.start, "magnitude", e.magnitude);
      }
    }
  }

  // Raw hook pointer for the hot loops: null means "no observability",
  // making every instrumentation site one predictable branch.
  RunObserver* const hp = hooks ? &*hooks : nullptr;

  // Hot-path counters: plain locals (not atomics, not clock reads), always
  // accumulated — they are schedule-derived profile data like llcMisses,
  // deterministic across hosts and pool sizes, published only as
  // RunProfile::hotPath.
  perf::HotPathStats hot;

  // Self-profiling: time the whole run under "sim.run" when a profiler is
  // attached. Compiled out with the rest of the obs layer.
#if OCCM_OBS_ENABLED
  std::optional<obs::ScopedPhase> runScope;
  if (config_.profiler != nullptr) {
    runScope.emplace(config_.profiler->phase("sim.run"));
  }
#endif

  // MLP divisors are fixed for the whole run (spec-validated >= 1); the
  // per-op and per-miss stall divisions use exact reciprocals instead of
  // hardware divides.
  const FastDiv prefetchMlpDiv(static_cast<Cycles>(spec.prefetchMlp));
  const FastDiv corePerMlpDiv(static_cast<Cycles>(spec.corePerMlp));

  auto jitteredQuantum = [&]() {
    const double jitter = rng.uniform(0.95, 1.05);
    return static_cast<Cycles>(
        static_cast<double>(config_.sched.quantum) * jitter);
  };

  // Timing wheel (sim/event_queue.hpp): earliest event first, same-cycle
  // events in push order — pinned by the golden corpus and the EventWheel
  // property suite.
  EventWheel events(static_cast<std::size_t>(totalCores));
  for (CoreId c = 0; c < totalCores; ++c) {
    CoreState& core = cores[static_cast<std::size_t>(c)];
    auto threadList = pinning.threadsOn[static_cast<std::size_t>(c)];
    if (threadList.empty()) {
      core.done = true;
      continue;
    }
    core.queue = sched::RunQueue(std::move(threadList));
    core.queue.start();
    core.active = true;
    core.quantumEnd = jitteredQuantum();
    events.push(0, c, EventKind::kAdvance);
  }
  hot.eventsPushed = events.size();
  hot.maxEventQueueDepth = events.size();


  // Advances a core until it blocks on an off-chip request, exhausts its
  // sync horizon, or finishes.
  auto advance = [&](CoreId coreId) {
    CoreState& core = cores[static_cast<std::size_t>(coreId)];
    const Cycles horizon = core.now + config_.syncHorizon;
    trace::Op op;
    while (true) {
      if (core.queue.empty()) {
        core.done = true;
        return;
      }
      if (core.now >= horizon) {
        events.push(core.now, coreId, EventKind::kAdvance);
        ++hot.eventsPushed;
        hot.maxEventQueueDepth =
            std::max<std::uint64_t>(hot.maxEventQueueDepth, events.size());
        return;
      }
      if (core.now >= core.quantumEnd) {
        if (core.queue.rotate()) {
          core.now += config_.sched.contextSwitchCost;
          core.stallCycles += config_.sched.contextSwitchCost;
          ++core.contextSwitches;
          if (hp != nullptr) {
            if (hp->ctxSwitches != nullptr) {
              hp->ctxSwitches->record(core.now);
              hp->stall[static_cast<std::size_t>(coreId)]->record(
                  core.now,
                  static_cast<double>(config_.sched.contextSwitchCost));
            }
            if (hp->eventsOn()) {
              runTrace->events.instant("ctx-switch", "sched", coreId,
                                       core.now);
            }
          }
        }
        core.quantumEnd = core.now + jitteredQuantum();
        continue;
      }
      const ThreadId thread = core.queue.current();
      auto& stream = *streams[static_cast<std::size_t>(thread)];
      if (!stream.next(op)) {
        core.queue.finish(thread);
        continue;
      }
      // Thermal throttle window: the core retires `slowdown`x slower; the
      // stretch is stall (the pipeline is not retiring).
      if (fe != nullptr && fe->coreThrottled(coreId)) {
        const Cycles extra = fe->throttleExtra(coreId, core.now, op.work);
        if (extra > 0) {
          core.now += extra;
          core.stallCycles += extra;
          if (hp != nullptr && hp->metricsOn()) {
            hp->stall[static_cast<std::size_t>(coreId)]->record(
                core.now, static_cast<double>(extra));
          }
        }
      }
      core.now += op.work;
      core.workCycles += op.work;
      core.instructions += op.instructions;
      if (hp != nullptr && hp->metricsOn()) {
        hp->work[static_cast<std::size_t>(coreId)]->record(
            core.now, static_cast<double>(op.work));
      }
      const cache::AccessResult res =
          hierarchy.access(coreId, op.addr, op.write);
      // Prefetchable (streaming) accesses overlap the cache-hit path the
      // same way they overlap miss latency.
      const Cycles hitStall =
          op.prefetchable
              ? std::max<Cycles>(1, prefetchMlpDiv.divide(res.latency))
              : res.latency;
      core.now += hitStall;
      core.stallCycles += hitStall;
      if (hp != nullptr && hp->metricsOn()) {
        hp->stall[static_cast<std::size_t>(coreId)]->record(
            core.now, static_cast<double>(hitStall));
      }
      if (res.offChip) {
        core.pendingAddr = op.addr;
        core.pendingPrefetchable = op.prefetchable;
        core.pendingCoherence = res.coherenceMiss;
        core.pendingWriteback = res.writeback;
        core.pendingWritebackLine = res.writebackLine;
        events.push(core.now, coreId, EventKind::kIssue);
        ++hot.eventsPushed;
        hot.maxEventQueueDepth =
            std::max<std::uint64_t>(hot.maxEventQueueDepth, events.size());
        return;
      }
    }
  };

  // Lifecycle guards, hoisted so the hot loop pays one predictable branch
  // each: a cycle budget aborts deterministically (same budget, same run,
  // same abort event everywhere); a cancellation token aborts at a
  // sampled event boundary after the stop request lands. The token is
  // read every kCancelPollEvents pops, starting with the first, because
  // a deadline-carrying token reads the steady clock — about a quarter
  // of an event's host time if it were paid per event.
  constexpr std::uint64_t kCancelPollEvents = 64;
  const Cycles cycleBudget = config_.cycleBudget;
  const bool pollCancel = config_.cancel.valid();
  // Deterministic crash injection (fault::FaultPlan::crash*): the process
  // dies at the first event boundary at or past the scripted cycle — the
  // same event on every machine and pool size — so crash-containment
  // paths are testable on demand. Filtered by active core count so a
  // sweep-wide plan can kill exactly one of its runs.
  const fault::FaultEvent* crash =
      config_.faultPlan.firstCrash(activeCores);

  while (!events.empty()) {
    // Lifecycle checks fire per event, at the same deterministic event
    // boundaries on every host; an abort discards the whole run, so
    // checking after the pop is equivalent.
    const Event ev = events.pop();
    if (crash != nullptr && ev.time >= crash->start) {
      fault::executeInjectedCrash(crash->kind, ev.time);
    }
    if (cycleBudget != 0 && ev.time > cycleBudget) {
      throw RunAborted(AbortReason::kCycleBudget, ev.time,
                       "simulation exceeded its cycle budget of " +
                           std::to_string(cycleBudget) +
                           " cycles (next event at cycle " +
                           std::to_string(ev.time) + ")");
    }
    if (pollCancel && hot.eventsPopped % kCancelPollEvents == 0 &&
        config_.cancel.stopRequested()) {
      throw RunAborted(AbortReason::kCancelled, ev.time,
                       "run cancelled at simulated cycle " +
                           std::to_string(ev.time));
    }
    ++hot.eventsPopped;
    CoreState& core = cores[static_cast<std::size_t>(ev.core)];
    OCCM_ASSERT(core.now <= ev.time || ev.kind == EventKind::kIssue);
    switch (ev.kind) {
      case EventKind::kAdvance: {
        ++hot.advanceTurns;
        core.now = std::max(core.now, ev.time);
        advance(ev.core);
        break;
      }
      case EventKind::kIssue: {
        ++hot.issueTurns;
        const Cycles now = ev.time;
        if (config_.enableSampler) {
          missSeries.record(now);
        }
        if (hp != nullptr && hp->llcMisses != nullptr) {
          hp->llcMisses->record(now);
        }
        // Apply fault-plan transitions and background injections scheduled
        // up to `now` before this request sees the memory system.
        if (fe != nullptr) {
          fe->advanceTo(now, memory);
        }
        const mem::RequestTiming timing =
            memory.request(now, ev.core, core.pendingAddr);
        if (core.pendingWriteback) {
          memory.writeback(now, ev.core, core.pendingWritebackLine);
          ++core.writebacks;
        }
        ++core.llcMisses;
        core.coherenceMisses += core.pendingCoherence ? 1 : 0;
        // Prefetchable (stream) misses overlap up to prefetchMlp deep: the
        // observed per-miss stall shrinks accordingly while the memory
        // system still sees the full request load (approximation noted in
        // DESIGN.md). Dependent misses use corePerMlp (default blocking).
        const FastDiv& mlpDiv =
            core.pendingPrefetchable ? prefetchMlpDiv : corePerMlpDiv;
        const Cycles rawStall = timing.done - now;
        const Cycles stall = std::max<Cycles>(1, mlpDiv.divide(rawStall));
        core.stallCycles += stall;
        core.now = now + stall;
        if (hp != nullptr) {
          if (hp->metricsOn()) {
            hp->stall[static_cast<std::size_t>(ev.core)]->record(
                core.now, static_cast<double>(stall));
          }
          if (hp->eventsOn()) {
            runTrace->events.span("mem-stall", "core", ev.core, now, stall,
                                  "queue_wait",
                                  static_cast<double>(timing.queueWait));
          }
        }
        events.push(core.now, ev.core, EventKind::kAdvance);
        ++hot.eventsPushed;
        hot.maxEventQueueDepth =
            std::max<std::uint64_t>(hot.maxEventQueueDepth, events.size());
        break;
      }
    }
  }

  // Assemble the profile.
  perf::RunProfile profile;
  profile.program = programName;
  profile.machine = spec.name;
  profile.threads = threads;
  profile.activeCores = activeCores;
  profile.perCore.resize(static_cast<std::size_t>(totalCores));
  for (CoreId c = 0; c < totalCores; ++c) {
    const CoreState& core = cores[static_cast<std::size_t>(c)];
    OCCM_ASSERT(core.done || !core.active);
    perf::CounterSet& set = profile.perCore[static_cast<std::size_t>(c)];
    set.totalCycles = core.workCycles + core.stallCycles;
    set.stallCycles = core.stallCycles;
    set.instructions = core.instructions;
    set.llcMisses = core.llcMisses;
    profile.counters += set;
    profile.coherenceMisses += core.coherenceMisses;
    profile.writebacks += core.writebacks;
    profile.contextSwitches += core.contextSwitches;
    profile.makespan = std::max(profile.makespan, core.now);
  }
  profile.controllerStats.reserve(
      static_cast<std::size_t>(memory.controllers()));
  for (NodeId node = 0; node < memory.controllers(); ++node) {
    profile.controllerStats.push_back(memory.controllerStats(node));
    profile.reroutedRequests += profile.controllerStats.back().absorbed;
    profile.faultRetries += profile.controllerStats.back().retryAttempts;
  }
  if (fe != nullptr) {
    profile.backgroundRequests = fe->backgroundIssued();
    profile.throttledCycles = fe->throttledCycles();
    profile.faultEpochs.reserve(config_.faultPlan.events().size());
    for (const fault::FaultEvent& e : config_.faultPlan.events()) {
      // A crash injection kills the run process: a run that completes
      // never suffered one (and a crash-only plan leaves the engine idle).
      if (!fault::isCrashKind(e.kind)) {
        profile.faultEpochs.push_back(
            {fault::toString(e.kind), e.target, e.start, e.end, e.magnitude});
      }
    }
  }
  hot.controllerTicks = memory.reservationOps();
  profile.hotPath = hot;
  profile.channelsPerController = spec.channelsPerController;
  if (config_.enableSampler) {
    missSeries.finalize(profile.makespan);
    profile.missWindows.reserve(missSeries.windowCount());
    for (std::size_t i = 0; i < missSeries.windowCount(); ++i) {
      profile.missWindows.push_back(
          static_cast<std::uint64_t>(missSeries.sum(i)));
    }
    profile.samplerWindowCycles = samplerWindow;
  }
  if (runTrace != nullptr) {
    memory.setObserver(nullptr);
    // Degraded-mode counters ride into the metric registry (and from
    // there into CSV exports and Chrome counter tracks) so a faulted run
    // is diagnosable from its observability payload alone. Only faulted
    // runs carry these series — a healthy run's export is unchanged.
    if (fe != nullptr && hooks->metricsOn()) {
      const Cycles at = profile.makespan == 0 ? 0 : profile.makespan - 1;
      runTrace->metrics.gauge("fault.rerouted", "requests")
          .record(at, static_cast<double>(profile.reroutedRequests));
      runTrace->metrics.gauge("fault.retries", "attempts")
          .record(at, static_cast<double>(profile.faultRetries));
      runTrace->metrics.gauge("fault.background", "requests")
          .record(at, static_cast<double>(profile.backgroundRequests));
      runTrace->metrics.gauge("fault.throttled_cycles", "cycles")
          .record(at, static_cast<double>(profile.throttledCycles));
    }
    runTrace->metrics.finalize(profile.makespan);
    hooks->deriveUtilization(spec.channelsPerController);
    profile.trace = std::move(runTrace);
  }
  return profile;
}

}  // namespace occm::sim
