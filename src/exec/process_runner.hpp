#pragma once

// Process isolation for one unit of work: fork a child, run the work
// function there under optional resource limits, send the result back
// as one frame over a pipe (the FdFrameTransport every socket uses,
// exec/frame_transport), and decode whatever happened — a clean result,
// a caught exception, a cooperative abort, or a hard death (signal,
// rlimit, nonzero exit) — into a structured ChildOutcome the caller can
// record without ever crashing itself.
//
// Contract highlights (DESIGN.md §11):
//  - The child runs the work exactly as the calling process would:
//    identical inputs produce a bit-identical RunProfile, shipped over a
//    fixed-width binary frame — isolation changes failure behavior, never
//    results.
//  - The supervisor never blocks on a dead pipe: it polls both the result
//    and stderr pipes, keeps a bounded stderr tail, and reaps the child
//    with waitpid after both hit EOF. The result pipe is read through the
//    shared FrameReassembler under its kMaxFramePayload cap; a clean exit
//    counts only with exactly one valid frame and no bytes after it.
//  - A cancellation token is parent-side: tokens do not propagate across
//    fork, so the supervisor polls it and SIGKILLs the child (reported as
//    kKilled, for the caller's timeout/cancel classification).
//  - RLIMIT_AS failures are deterministic: the child installs a
//    new-handler that writes fault::kOutOfMemoryMarker to stderr and
//    aborts, so the parent can report "address-space" instead of a bare
//    SIGABRT.

#include <cstdint>
#include <functional>
#include <string>

#include "common/cancellation.hpp"
#include "perf/run_profile.hpp"

namespace occm::exec {

/// Limits applied inside the forked child before the work runs; 0 means
/// "inherit" (no limit set).
struct ResourceLimits {
  std::uint64_t memoryBytes = 0;  ///< RLIMIT_AS address-space budget
  std::uint64_t cpuSeconds = 0;   ///< RLIMIT_CPU (SIGXCPU on overrun)
};

struct ProcessRunnerConfig {
  ResourceLimits limits;
  /// Bytes of the child's stderr kept (the *tail* — the last bytes
  /// written are the ones that explain a death).
  std::size_t stderrTailBytes = 4096;
  /// Parent-side kill switch: when the token fires, the supervisor
  /// SIGKILLs the child and reports kKilled.
  CancellationToken cancel;
};

/// How the isolated attempt ended.
enum class ChildStatus : std::uint8_t {
  kOk,         ///< clean exit, valid frame, profile decoded
  kException,  ///< the work threw; `error` is what()
  kAborted,    ///< the work unwound via RunAborted (budget/cancel)
  kKilled,     ///< the supervisor killed the child (cancel token fired)
  kCrash,      ///< the child died: signal, rlimit, or protocol violation
};

[[nodiscard]] constexpr const char* toString(ChildStatus status) noexcept {
  switch (status) {
    case ChildStatus::kOk: return "ok";
    case ChildStatus::kException: return "exception";
    case ChildStatus::kAborted: return "aborted";
    case ChildStatus::kKilled: return "killed";
    case ChildStatus::kCrash: return "crash";
  }
  return "unknown";
}

struct ChildOutcome {
  ChildStatus status = ChildStatus::kCrash;
  perf::RunProfile profile;  ///< kOk only
  /// Human-readable description for kException / kAborted / kCrash.
  std::string error;
  /// kAborted only: reason and cycle for an equivalent RunAborted.
  AbortReason abortReason = AbortReason::kCancelled;
  Cycles abortCycle = 0;
  /// kCrash / kKilled: signal that terminated the child (0 = exited).
  int signal = 0;
  /// kCrash: exit status when the child exited instead of dying on a
  /// signal (sanitizer deaths land here); -1 otherwise.
  int exitCode = -1;
  /// Which resource limit explains the death: "address-space" (RLIMIT_AS
  /// via the OOM marker), "cpu" (SIGXCPU), or empty.
  std::string rlimit;
  /// Bounded tail of the child's stderr, sanitized to printable ASCII.
  std::string stderrTail;
};

/// Runs `work` in a forked child under `config` and returns the decoded
/// outcome. Child-side failures of every shape come back as data; the
/// only throws are parent-side setup contract violations (pipe/fork
/// failure).
///
/// The caller must treat `work` as running in a separate address space:
/// side effects on parent memory do not happen, and the observability
/// trace (RunProfile::trace) is not shipped back.
[[nodiscard]] ChildOutcome runInChild(
    const std::function<perf::RunProfile()>& work,
    const ProcessRunnerConfig& config = {});

}  // namespace occm::exec
