#pragma once

// Self-profiling of the harness itself, in host time — where the
// simulator's *own* time goes, as opposed to the simulated machine's
// (which MetricRegistry/TraceSink cover in simulated time). The run's
// hot-path counts are not kept here: they are schedule-derived profile
// data and ride on perf::RunProfile::hotPath.
//
// A Profiler is a registry of named Phases; a ScopedPhase times one scope
// into a Phase (calls and total wall-clock nanoseconds). Phases nest
// freely and timing is inclusive. MachineSim times each run under
// "sim.run" when SimConfig::profiler is set; that scope sits inside
// `#if OCCM_OBS_ENABLED`, so with OCCM_ENABLE_OBS=OFF it takes no clock
// reads, and with obs on but no profiler attached a run pays one branch.
//
// Determinism: nothing in the simulator reads a profiler value back, so
// a profiled run's output is bit-identical to an unprofiled one (pinned
// by Profiler.FingerprintUnchangedByProfiling).

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

namespace occm::obs {

/// Wall-clock nanoseconds since an arbitrary steady epoch.
[[nodiscard]] std::uint64_t steadyNowNs() noexcept;

/// Accumulated statistics of one named phase.
struct PhaseSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t wallNs = 0;  ///< total wall time inside the phase
};

/// One registered phase. Accumulation is relaxed-atomic: concurrent
/// scopes (parallel sweep tasks timing "sim.run") never lose increments,
/// and a snapshot taken mid-scope is merely slightly stale. Cache-line
/// aligned so two threads recording *different* phases never write-share
/// a line just because the registry packed the objects adjacently.
class alignas(64) Phase {
 public:
  /// Construct through Profiler::phase(), which keeps the reference
  /// stable.
  explicit Phase(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Folds one completed scope into the totals.
  void record(std::uint64_t wallNs) noexcept {
    calls_.fetch_add(1, std::memory_order_relaxed);
    wallNs_.fetch_add(wallNs, std::memory_order_relaxed);
  }

  [[nodiscard]] PhaseSnapshot snapshot() const {
    return {name_, calls_.load(std::memory_order_relaxed),
            wallNs_.load(std::memory_order_relaxed)};
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> wallNs_{0};
};

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Registers (or re-opens) a phase. The reference stays valid for the
  /// profiler's lifetime; registration is thread-safe and cold-path.
  [[nodiscard]] Phase& phase(std::string_view name);

 private:
  std::mutex mutex_;
  std::deque<Phase> phases_;  ///< deque: stable references
};

/// RAII scope: reads the wall clock on entry and folds the elapsed time
/// into the phase on exit.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase& phase) noexcept
      : phase_(&phase), startNs_(steadyNowNs()) {}
  ~ScopedPhase() { phase_->record(steadyNowNs() - startNs_); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase* phase_;
  std::uint64_t startNs_;
};

}  // namespace occm::obs
