#pragma once

// Deterministic fault scenarios scripted against simulated time.
//
// A FaultPlan is a declarative list of fault windows a run should suffer:
// memory-controller outages (requests reroute to surviving controllers
// with a bounded retry-with-backoff penalty), controller degradation
// (channel service slowed by a scale factor), thermal throttle windows on
// cores, transient ECC-retry latency spikes, and interfering background
// traffic bursts aimed at one controller. The plan itself is pure data —
// fault::FaultEngine turns it into health transitions and injections
// against mem::MemorySystem, and sim::MachineSim applies the core-local
// throttle windows. Everything is reproducible from SimConfig::seed:
// identical plan + seed gives bit-identical RunProfile counters.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace occm::fault {

enum class FaultKind : std::uint8_t {
  kControllerOutage,   ///< controller down; demand traffic fails over
  kControllerDegrade,  ///< channel occupancy scaled (slower service rate)
  kCoreThrottle,       ///< thermal throttle: core work cycles stretched
  kEccSpike,           ///< probabilistic ECC-retry latency added per request
  kBackgroundTraffic,  ///< periodic interfering transfers at one controller
  // Crash injections: the run *process* dies at a scripted cycle. These
  // exist to exercise the supervised (process-isolated) sweep path
  // end-to-end; a sweep refuses a crash plan unless isolation is enabled.
  kCrashAbort,  ///< std::abort() at the scripted cycle (SIGABRT)
  kCrashSegv,   ///< null-pointer store at the scripted cycle (SIGSEGV)
  kCrashOom,    ///< allocate until the memory budget kills the process
};

[[nodiscard]] constexpr const char* toString(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kControllerOutage: return "controller-outage";
    case FaultKind::kControllerDegrade: return "controller-degrade";
    case FaultKind::kCoreThrottle: return "core-throttle";
    case FaultKind::kEccSpike: return "ecc-spike";
    case FaultKind::kBackgroundTraffic: return "background-traffic";
    case FaultKind::kCrashAbort: return "crash-abort";
    case FaultKind::kCrashSegv: return "crash-segv";
    case FaultKind::kCrashOom: return "crash-oom";
  }
  return "unknown";
}

/// True for the fault kinds that kill the run process (see above).
[[nodiscard]] constexpr bool isCrashKind(FaultKind kind) noexcept {
  return kind == FaultKind::kCrashAbort || kind == FaultKind::kCrashSegv ||
         kind == FaultKind::kCrashOom;
}

/// One scripted fault window [start, end) in simulated cycles.
struct FaultEvent {
  FaultKind kind = FaultKind::kControllerOutage;
  /// NodeId for controller faults, CoreId for throttle windows. For crash
  /// kinds: the active-core count the crash applies to (0 = every run),
  /// so a sweep-wide plan can kill exactly one of its core counts.
  std::int32_t target = 0;
  Cycles start = 0;
  Cycles end = 0;
  /// Service scale (degrade, >= 1), slowdown factor (throttle, >= 1) or
  /// ECC-retry probability (spike, in (0, 1]); unused otherwise.
  double magnitude = 1.0;
  /// Latency added per ECC retry; unused otherwise.
  Cycles penaltyCycles = 0;
  /// Inter-arrival of background transfers; unused otherwise.
  Cycles period = 0;
};

class FaultPlan {
 public:
  /// Controller `node` serves nothing in [start, end); demand requests
  /// pay the bounded retry/backoff penalty and reroute to the nearest
  /// healthy controller.
  FaultPlan& controllerOutage(NodeId node, Cycles start, Cycles end);

  /// Controller `node`'s channel occupancy is multiplied by
  /// `serviceScale` (>= 1) in [start, end).
  FaultPlan& controllerDegrade(NodeId node, Cycles start, Cycles end,
                               double serviceScale);

  /// Core `core` retires `slowdown`x (>= 1) slower in [start, end); the
  /// stretch is accounted as stall cycles (the core is not retiring).
  FaultPlan& coreThrottle(CoreId core, Cycles start, Cycles end,
                          double slowdown);

  /// Each request served by `node` in [start, end) suffers an extra
  /// `penalty`-cycle ECC retry with probability `probability`.
  FaultPlan& eccSpike(NodeId node, Cycles start, Cycles end,
                      double probability, Cycles penalty);

  /// Injects one interfering transfer at `node` every `period` cycles in
  /// [start, end) (scattered addresses: row-cycle-limited traffic).
  FaultPlan& backgroundTraffic(NodeId node, Cycles start, Cycles end,
                               Cycles period);

  /// The run process calls std::abort() at the first simulated event at
  /// or past `atCycle` — deterministic across machines, seeds and pool
  /// sizes. `activeCores` restricts the crash to runs with exactly that
  /// active-core count (0 = every run). Requires process isolation when
  /// used through runSweep.
  FaultPlan& crashAbort(Cycles atCycle, int activeCores = 0);

  /// As crashAbort, but dies on a null-pointer store (SIGSEGV).
  FaultPlan& crashSegv(Cycles atCycle, int activeCores = 0);

  /// As crashAbort, but allocates until the process's memory budget
  /// (RLIMIT_AS in an isolated child) kills it.
  FaultPlan& crashOom(Cycles atCycle, int activeCores = 0);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// True when the plan contains any crash-injection event.
  [[nodiscard]] bool hasCrash() const noexcept;

  /// The plan minus its crash-injection events: what a completed run's
  /// profile depends on (a crash decides whether a run completes, never
  /// what it measures).
  [[nodiscard]] FaultPlan withoutCrashes() const;

  /// Earliest crash event that applies to a run with `activeCores` active
  /// cores (matching target, or target 0 = any); nullptr when none does.
  [[nodiscard]] const FaultEvent* firstCrash(int activeCores) const noexcept;

  /// Machine-dependent validation: targets in range, and controller
  /// outages never cover every active controller at once (the memory
  /// system needs at least one healthy controller to fail over to).
  /// Throws ContractViolation with the offending event in the message.
  void validate(int controllers, int cores,
                std::span<const NodeId> activeNodes) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace occm::fault
