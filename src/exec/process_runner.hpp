#pragma once

// Process isolation for one unit of work: fork a child, run the work
// function there under optional resource limits, send its RunOutcome
// (exec/ipc) back as one frame over a pipe (the FdFrameTransport every
// socket uses, exec/frame_transport), and return whatever happened — a
// profile, a caught exception or abort classified by caughtFailure, a
// supervisor kill, or a hard death (signal, rlimit, nonzero exit) — as
// the same RunOutcome, which the caller can record without ever crashing
// itself.
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
//    kCancelled with SIGKILL in `signal`; the caller decides whether an
//    expired deadline makes that a timeout).
//  - RLIMIT_AS failures are deterministic: the child installs a
//    new-handler that writes fault::kOutOfMemoryMarker to stderr and
//    aborts, so the parent can report "address-space" instead of a bare
//    SIGABRT.

#include <cstdint>
#include <functional>
#include <string>

#include "common/cancellation.hpp"
#include "exec/ipc.hpp"
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
  /// SIGKILLs the child and reports a kCancelled failure.
  CancellationToken cancel;
};

/// Runs `work` in a forked child under `config` and returns its outcome:
/// the profile, or one failure record — the child's caughtFailure, a
/// kCancelled supervisor kill, or a kCrash death with `signal`, `rlimit`
/// and `stderrTail` filled in (a clean exit without exactly one valid
/// outcome frame is a kCrash too). Only kind, error and the crash detail
/// are set; the caller owns cores, attempts and the rest. The only throws
/// are parent-side setup contract violations (pipe/fork failure).
///
/// The caller must treat `work` as running in a separate address space:
/// side effects on parent memory do not happen, and the observability
/// trace (RunProfile::trace) is not shipped back.
[[nodiscard]] RunOutcome runInChild(
    const std::function<perf::RunProfile()>& work,
    const ProcessRunnerConfig& config = {});

}  // namespace occm::exec
