#pragma once

// Failure isolation and resumability for sweep harnesses. A sweep over
// many core counts is the unit of work the whole methodology hangs on;
// one crashed or degenerate run must not throw away the survivors. This
// header holds the structured failure record runSweep emits and the
// checkpoint that lets an interrupted sweep resume without re-simulating
// completed core counts.
//
// Checkpoint format v3: JSON is only the container. The header names the
// sweep (program and machine as readable labels, plus "config", a CRC-32
// of everything that decides what a completed run measures), and each
// completed run is stored whole: the exec::wire encoding of its
// RunProfile — the same bytes the isolation pipe and the fleet carry —
// as lowercase hex, with a CRC-32 over those bytes. A resumed profile is
// therefore the checkpointed profile itself, bit for bit. Failure records
// stay JSON fields with a CRC-32 over a canonical field encoding. Loading
// is tolerant: truncated/garbage/version-skewed/CRC-failed files produce
// a typed CheckpointError naming the byte offset, and loadOrQuarantine
// renames the bad file to <path>.corrupt so a fresh start never fights
// the same bytes twice. Files of older formats (v1, v2) load as version
// skew: a checkpoint is a cache of work, so dropping one costs a re-run,
// never a wrong answer.

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "perf/run_profile.hpp"

namespace occm::analysis {

/// How a sweep run came to fail. The first four are outcomes of the run
/// itself (and the only kinds a distributed worker can put on the wire);
/// the last three are coordinator-local evidence about the *fleet* —
/// recorded for diagnosis, always considered recovered once another
/// dispatch of the same task settles it.
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
  /// kCrash only: signal that terminated the isolated child (0 = the
  /// child exited with a nonzero status instead).
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

/// Why a checkpoint failed to load.
enum class CheckpointErrorKind : std::uint8_t {
  kMissing,      ///< no file at the path — a fresh start, not corruption
  kIoError,      ///< the file exists but could not be read
  kTruncated,    ///< the bytes end mid-structure
  kSyntax,       ///< the bytes deviate from the format
  kVersionSkew,  ///< a format version this build does not understand
  kCrcMismatch,  ///< a record's CRC-32 does not match its contents
};

[[nodiscard]] constexpr const char* toString(CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kMissing: return "missing";
    case CheckpointErrorKind::kIoError: return "io-error";
    case CheckpointErrorKind::kTruncated: return "truncated";
    case CheckpointErrorKind::kSyntax: return "syntax";
    case CheckpointErrorKind::kVersionSkew: return "version-skew";
    case CheckpointErrorKind::kCrcMismatch: return "crc-mismatch";
  }
  return "unknown";
}

/// Typed diagnosis of a checkpoint that could not be trusted.
struct CheckpointError {
  CheckpointErrorKind kind = CheckpointErrorKind::kSyntax;
  /// Byte offset of the first deviation (parse-shaped kinds only).
  std::size_t byteOffset = 0;
  std::string detail;
  /// Where loadOrQuarantine moved the bad file (empty if not quarantined).
  std::string quarantinedTo;

  /// "corrupt checkpoint (truncated) at byte 117: unexpected end ..."
  [[nodiscard]] std::string message() const;
};

/// On-disk sweep state: an identity header (so a checkpoint from a
/// different configuration is never silently reused) plus the completed
/// runs and recorded failures.
struct SweepCheckpoint {
  /// The only format this build reads, and the one it writes.
  static constexpr int kFormatVersion = 3;

  std::string program;
  std::string machine;
  /// Digest of the sweep configuration (see runSweep); matches() compares
  /// it, program and machine are labels for a human reading the file.
  std::uint32_t config = 0;
  std::vector<perf::RunProfile> runs;
  std::vector<RunFailure> failures;

  [[nodiscard]] bool matches(std::uint32_t configDigest) const {
    return config == configDigest;
  }
  /// Completed profile for a core count, or nullptr.
  [[nodiscard]] const perf::RunProfile* find(int cores) const;

  [[nodiscard]] std::string toJson() const;

  /// Parses what toJson produced. Returns a typed error naming the byte
  /// offset of the first deviation; never throws, never UB on bad bytes.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError> parseChecked(
      const std::string& json);

  /// Atomic, durable write: temp file in the same directory, fsync,
  /// rename, then fsync of the containing directory — so a machine crash
  /// immediately after save() cannot roll the file back to the previous
  /// (or no) checkpoint. Returns false on I/O failure (checkpointing is
  /// best-effort; a sweep never aborts because its checkpoint could not
  /// be written).
  bool save(const std::string& path) const;

  /// Reads and parses `path` with a typed diagnosis: kMissing when the
  /// file is absent, kIoError when unreadable, parse kinds otherwise.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError> loadChecked(
      const std::string& path);
  /// loadChecked, plus quarantine: a file that exists but cannot be
  /// trusted (truncated/garbage/version-skew/CRC mismatch) is renamed to
  /// `path + ".corrupt"` (error.quarantinedTo names the destination) so
  /// the caller can fall back to a fresh start without re-tripping on —
  /// or silently overwriting — the evidence.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError>
  loadOrQuarantine(const std::string& path);
};

}  // namespace occm::analysis
