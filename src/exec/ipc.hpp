#pragma once

// The frame and the outcome record shared by every framed channel in the
// repo. A frame is magic, u32 payload length, payload, u32 CRC-32 of the
// payload; encodeFrame builds one, and the one reader of frames is
// exec/frame_transport's FrameReassembler, which validates magic, length
// cap and CRC for pipes and sockets alike. The fixed-width little-endian
// encoding means bytes produced by a forked child or a remote worker
// decode bit-exactly — the foundation of the isolation mode's
// "successful runs are bit-identical to in-process runs" guarantee
// (DESIGN.md §11).
//
// RunOutcome is how one run ended, wherever it ran: a profile, a
// RunFailure, or both (a retry that recovered). The isolated child sends
// it to its supervisor, runInChild returns it, a fleet worker puts it in
// its kResult, and the sweep merges it. One codec carries it on the pipe
// and on the fleet wire (exec/wire_codec putOutcome/readOutcome), whose
// decoder is hardened against arbitrary bytes: every read is
// bounds-checked, counts and string lengths are capped, and any deviation
// produces a typed IpcError naming the byte offset — never a throw, never
// UB. fuzz/fuzz_ipc_frame.cpp drives it with libFuzzer.
//
// Not serialized: RunProfile::trace (the observability payload). A child
// ships counters, per-core sets, controller stats, miss windows and fault
// epochs; traces stay a single-process feature (documented on
// IsolationConfig).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "perf/run_profile.hpp"

namespace occm::exec {

/// Wire-frame geometry, read by the streaming reassembler in
/// exec/frame_transport (streams deliver frames in arbitrary chunks, so
/// the header must be parseable before the payload arrives).
inline constexpr char kFrameMagic[4] = {'O', 'C', 'F', '1'};
inline constexpr std::size_t kFrameHeaderSize = 8;   ///< magic + u32 length
inline constexpr std::size_t kFrameTrailerSize = 4;  ///< u32 payload CRC
inline constexpr std::size_t kFrameOverhead =
    kFrameHeaderSize + kFrameTrailerSize;
/// Max payload a peer may declare, on every channel: fleet messages,
/// advisor messages and the isolation result pipe. Anything larger is
/// rejected before a single payload byte is buffered — a corrupt or
/// hostile length field must never drive a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1U << 24;

/// Typed diagnosis of bytes that are not a valid frame or message.
struct IpcError {
  std::size_t byteOffset = 0;  ///< offset of the first deviation
  std::string detail;
  bool truncated = false;  ///< the bytes end mid-structure
  bool crcMismatch = false;  ///< a frame's payload failed its CRC-32

  /// "corrupt ipc frame (truncated) at byte 12: ..."
  [[nodiscard]] std::string message() const;
};

/// How a run came to fail. The first four are outcomes of the run itself
/// and the only kinds the outcome codec carries (their values 0–3 are
/// wire bytes); the last three are coordinator-local evidence about the
/// *fleet* — recorded for diagnosis, always considered recovered once
/// another dispatch of the same task settles it.
enum class RunFailureKind : std::uint8_t {
  kException,     ///< the run (or a beforeRun hook) threw
  kTimeout,       ///< per-run deadline or cycle budget fired
  kCancelled,     ///< whole-sweep cancellation observed mid-run
  kCrash,         ///< isolated child died hard: signal, rlimit, bad frame
  kWorkerLost,    ///< distributed: lease lost (death, eviction, expiry)
  kHandshake,     ///< distributed: worker failed the versioned handshake
  kFrameCorrupt,  ///< distributed: stream failed frame/message validation
};

[[nodiscard]] constexpr const char* toString(RunFailureKind kind) noexcept {
  switch (kind) {
    case RunFailureKind::kException: return "exception";
    case RunFailureKind::kTimeout: return "timeout";
    case RunFailureKind::kCancelled: return "cancelled";
    case RunFailureKind::kCrash: return "crash";
    case RunFailureKind::kWorkerLost: return "worker-lost";
    case RunFailureKind::kHandshake: return "handshake";
    case RunFailureKind::kFrameCorrupt: return "frame-corrupt";
  }
  return "unknown";
}

/// One core count that misbehaved during a sweep: either it eventually
/// recovered on a seed-perturbed retry, or it exhausted its attempts and
/// is absent from the results.
struct RunFailure {
  int cores = 0;
  int attempts = 0;        ///< total attempts made (1 = failed first try)
  std::string error;       ///< what() of the last exception
  bool recovered = false;  ///< a retry eventually produced a profile
  /// Resolved sweep pool size when the failure was recorded (1 = serial);
  /// lets a partially-merged parallel sweep be diagnosed from its records.
  int poolSize = 1;
  /// Timeouts and cancellations are lifecycle outcomes, not retried, and
  /// never persisted to the checkpoint (a resume should re-attempt them).
  /// Crashes behave like exceptions: retried, and persisted so a resumed
  /// sweep keeps the evidence.
  RunFailureKind kind = RunFailureKind::kException;
  /// Signal that terminated an isolated child: the death signal of a
  /// kCrash (0 = the child exited with a nonzero status instead), or
  /// SIGKILL when the supervisor killed it (kCancelled / kTimeout).
  int signal = 0;
  /// kCrash only: resource limit that explains the death —
  /// "address-space" (RLIMIT_AS) or "cpu" (RLIMIT_CPU) — or empty.
  std::string rlimit;
  /// kCrash only: bounded, printable-ASCII tail of the child's stderr.
  std::string stderrTail;
  /// Distributed kinds only: id of the worker the incident names (or
  /// "peer fd N" for a pre-handshake connection); empty otherwise.
  std::string worker;
};

/// How one run ended: a profile, a failure, or both (a recovered retry
/// has a failure record *and* a profile).
struct RunOutcome {
  std::optional<perf::RunProfile> profile;
  std::optional<RunFailure> failure;
};

/// The failure record of the exception being handled — call it only
/// inside a catch block. RunAborted is a kTimeout when its reason is
/// kCycleBudget and a kCancelled otherwise; any other exception is a
/// kException carrying what(). Only kind and error are filled in.
[[nodiscard]] RunFailure caughtFailure();

/// Wraps a payload in the wire frame: magic, u32 length, payload bytes,
/// u32 CRC-32 of the payload.
[[nodiscard]] std::string encodeFrame(std::string_view payload);

}  // namespace occm::exec
