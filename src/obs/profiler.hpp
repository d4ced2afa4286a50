#pragma once

// Self-profiling of the harness itself, in host time — where the
// simulator's *own* cycles go, as opposed to the simulated machine's
// (which MetricRegistry/TraceSink cover in simulated time).
//
// Three primitives:
//  - Phase + ScopedPhase: RAII scoped timers accumulating wall-clock and
//    thread-CPU nanoseconds per named phase (calls, total, max). Phases
//    nest freely; timing is inclusive, so a child phase's wall time is
//    also inside its parent's.
//  - Counter: a hot-path event counter (events popped, controller ticks,
//    queue ops). Plain uint64 with unsigned wraparound semantics,
//    relaxed-atomic so concurrent sweep tasks can share one counter.
//  - Profiler: the registry. phase()/counter() return stable references
//    (register once, record with no name lookup), snapshots are
//    consistent-enough reads of the atomics, and the whole state exports
//    through the *existing* sinks: exportTo(MetricRegistry&) for metric
//    consumers and chromeTrace() for a Perfetto-loadable timeline of the
//    recorded phase spans (host nanoseconds on the trace clock).
//
// Zero-cost contract: every host-time recording site is compiled out
// with the rest of the obs layer and, when it records into a Profiler,
// checks for a null one first. MachineSim's "sim.run" scope and its
// counter flush sit inside `#if OCCM_OBS_ENABLED` and test
// `config.profiler != nullptr`; the sweep pool's clock reads sit inside
// `if constexpr (obs::kCompiledIn)`. With OCCM_ENABLE_OBS=OFF the sites
// vanish — no clock reads, no increments, no code — and with obs on but
// no profiler attached a run pays one predicted branch. The classes
// themselves stay defined in every build (cold-path registration and
// tests keep working); only the recording sites vanish.
//
// Determinism: the profiler observes the run, never steers it. Nothing
// in the simulator reads a profiler value back, so a profiled run's
// output is bit-identical to an unprofiled one (pinned by
// Profiler.FingerprintUnchangedByProfiling).

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/run_trace.hpp"

namespace occm::obs {

/// Wall-clock nanoseconds since an arbitrary steady epoch.
[[nodiscard]] std::uint64_t steadyNowNs() noexcept;

/// CPU time consumed by the calling thread, in nanoseconds (0 where the
/// platform offers no per-thread clock).
[[nodiscard]] std::uint64_t threadCpuNowNs() noexcept;

/// Accumulated statistics of one named phase.
struct PhaseSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t wallNs = 0;     ///< total wall time inside the phase
  std::uint64_t cpuNs = 0;      ///< total thread-CPU time inside the phase
  std::uint64_t maxWallNs = 0;  ///< longest single scope
};

/// Value of one named hot-path counter.
struct CounterSnapshot {
  std::string name;
  std::string unit;
  std::uint64_t value = 0;
};

/// One registered phase. Accumulation is relaxed-atomic: concurrent
/// scopes (e.g. parallel sweep tasks timing "sweep.task") never lose
/// increments, and a snapshot taken mid-scope is merely slightly stale.
/// Cache-line aligned: two threads hammering *different* phases must not
/// write-share a line just because the registry packed the objects
/// adjacently (contention on the *same* phase is intrinsic).
class alignas(64) Phase {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Folds one completed scope into the totals.
  void record(std::uint64_t wallNs, std::uint64_t cpuNs) noexcept {
    calls_.fetch_add(1, std::memory_order_relaxed);
    wallNs_.fetch_add(wallNs, std::memory_order_relaxed);
    cpuNs_.fetch_add(cpuNs, std::memory_order_relaxed);
    std::uint64_t seen = maxWallNs_.load(std::memory_order_relaxed);
    while (wallNs > seen && !maxWallNs_.compare_exchange_weak(
                                seen, wallNs, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] PhaseSnapshot snapshot() const {
    return {name_, calls_.load(std::memory_order_relaxed),
            wallNs_.load(std::memory_order_relaxed),
            cpuNs_.load(std::memory_order_relaxed),
            maxWallNs_.load(std::memory_order_relaxed)};
  }

  /// Construct through Profiler::phase(); public only because container
  /// emplacement cannot borrow the profiler's friendship.
  explicit Phase(std::string name) : name_(std::move(name)) {}

 private:
  friend class Profiler;
  std::string name_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> wallNs_{0};
  std::atomic<std::uint64_t> cpuNs_{0};
  std::atomic<std::uint64_t> maxWallNs_{0};
};

/// One registered hot-path counter. add() wraps modulo 2^64 — the
/// well-defined unsigned overflow of the underlying uint64 — rather than
/// saturating or trapping (pinned by Profiler.CounterOverflowWraps).
/// Cache-line aligned for the same reason as Phase: counters bumped from
/// different sweep workers must not false-share.
class alignas(64) Counter {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

  void add(std::uint64_t amount = 1) noexcept {
    value_.fetch_add(amount, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] CounterSnapshot snapshot() const {
    return {name_, unit_, value()};
  }

  /// Construct through Profiler::counter(); see Phase.
  Counter(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

 private:
  friend class Profiler;
  std::string name_;
  std::string unit_;
  std::atomic<std::uint64_t> value_{0};
};

struct ProfilerConfig {
  /// Record every completed scope as a span into an internal TraceSink
  /// (one track per recording thread). Off by default: span recording
  /// takes a mutex per scope end, which is fine for coarse phases and
  /// wrong for per-event ones.
  bool spans = false;
  std::size_t spanCapacity = 1U << 14U;
  /// Window width (host ns) of the MetricRegistry built by exports.
  std::uint64_t exportWindowNs = 1'000'000;
};

class Profiler {
 public:
  explicit Profiler(ProfilerConfig config = {});

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Registers (or re-opens) a phase. The reference stays valid for the
  /// profiler's lifetime; registration is thread-safe and cold-path.
  [[nodiscard]] Phase& phase(std::string_view name);
  /// Registers (or re-opens) a counter. Re-opening keeps the first unit.
  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::string_view unit = "events");

  /// Host-ns since the profiler was constructed (the span timeline zero).
  [[nodiscard]] std::uint64_t elapsedNs() const noexcept;

  /// Stable-order snapshots (registration order).
  [[nodiscard]] std::vector<PhaseSnapshot> phases() const;
  [[nodiscard]] std::vector<CounterSnapshot> counters() const;

  /// Zeroes every phase and counter (registrations survive).
  void reset();

  /// Records the current totals into `registry` as gauges at time
  /// `atCycle`: "prof.phase.<name>.{wall_ns,cpu_ns,calls,max_wall_ns}"
  /// and "prof.counter.<name>" — the bridge into every consumer that
  /// already reads a MetricRegistry (metricsToCsv, Chrome counter
  /// tracks).
  void exportTo(MetricRegistry& registry, Cycles atCycle) const;

  /// Renders the profiler as a Chrome trace_event JSON document through
  /// the existing exporter: recorded phase spans on per-thread tracks
  /// (host ns; 1 "cycle" = 1 ns) plus counter/phase totals as counter
  /// tracks.
  [[nodiscard]] std::string chromeTrace() const;

  [[nodiscard]] bool spansEnabled() const noexcept { return config_.spans; }

  /// Called by ScopedPhase on destruction; also the test seam for
  /// recording a span without a live clock.
  void recordSpan(const Phase& phase, std::uint64_t startNs,
                  std::uint64_t durationNs);

 private:
  ProfilerConfig config_;
  std::uint64_t epochNs_;

  mutable std::mutex registerMutex_;
  std::deque<Phase> phases_;      ///< deque: stable references
  std::deque<Counter> counters_;  ///< deque: stable references
  std::unordered_map<std::string, std::size_t> phaseIndex_;
  std::unordered_map<std::string, std::size_t> counterIndex_;

  mutable std::mutex spanMutex_;
  TraceSink spans_;
  std::unordered_map<std::thread::id, std::int32_t> trackByThread_;
};

/// RAII scope: captures wall + thread-CPU time on entry, folds the delta
/// into the phase (and optionally a span) on exit.
class ScopedPhase {
 public:
  ScopedPhase(Profiler& profiler, Phase& phase) noexcept
      : profiler_(&profiler), phase_(&phase),
        startWallNs_(profiler.elapsedNs()), startCpuNs_(threadCpuNowNs()) {}

  ~ScopedPhase() {
    const std::uint64_t wallNs = profiler_->elapsedNs() - startWallNs_;
    const std::uint64_t cpuNs = threadCpuNowNs() - startCpuNs_;
    phase_->record(wallNs, cpuNs);
    if (profiler_->spansEnabled()) {
      profiler_->recordSpan(*phase_, startWallNs_, wallNs);
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
  Phase* phase_;
  std::uint64_t startWallNs_;
  std::uint64_t startCpuNs_;
};

}  // namespace occm::obs
