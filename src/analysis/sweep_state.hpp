#pragma once

// Failure isolation and resumability for sweep harnesses. A sweep over
// many core counts is the unit of work the whole methodology hangs on;
// one crashed or degenerate run must not throw away the survivors. This
// header names the structured failure record runSweep emits (defined in
// exec/ipc, shared with the isolated child and the fleet wire) and holds
// the checkpoint that lets an interrupted sweep resume without
// re-simulating completed core counts.
//
// Checkpoint format v4 is a file of exec::encodeFrame frames, read back
// by exec::FrameReassembler like every other framed channel: a header
// frame (u32 version, program and machine labels, the u32 config digest
// and a u32 record count), then one record frame per core count in
// ascending order (i32 cores, the failure's i32 pool size or 0, then the
// exec::wire::putOutcome bytes). A resumed profile is therefore the
// checkpointed profile itself, bit for bit. Loading is tolerant: a bad
// file yields a typed CheckpointError naming the byte offset, and
// loadOrQuarantine renames it to <path>.corrupt so a fresh start never
// fights the same bytes twice. Older formats (v1-v3, all JSON) load as
// version skew: a checkpoint is a cache of work, so dropping one costs a
// re-run, never a wrong answer.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "exec/ipc.hpp"
#include "perf/run_profile.hpp"

namespace occm::analysis {

/// The failure record and its kinds live in exec/ipc, where the
/// isolated child, the fleet wire and the sweep share them.
using exec::RunFailure;
using exec::RunFailureKind;

/// Why a checkpoint failed to load.
enum class CheckpointErrorKind : std::uint8_t {
  kMissing,      ///< no file at the path — a fresh start, not corruption
  kIoError,      ///< the file exists but could not be read
  kTruncated,    ///< the bytes end mid-frame or before the counted records
  kSyntax,       ///< the bytes deviate from the format
  kVersionSkew,  ///< a format version this build does not understand
  kCrcMismatch,  ///< a frame's CRC-32 does not match its payload
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
/// different configuration is never silently reused) plus what each
/// settled core count left.
struct SweepCheckpoint {
  /// The only format this build reads, and the one it writes.
  static constexpr std::uint32_t kFormatVersion = 4;

  std::string program;
  std::string machine;
  /// Digest of the sweep configuration (see runSweep); matches() compares
  /// it, program and machine are labels for a human reading the file.
  std::uint32_t config = 0;
  /// One outcome per core count, in ascending core-count order: a
  /// profile, an exception or crash record, or both. A failure's cores
  /// and poolSize are its record's.
  std::map<int, exec::RunOutcome> outcomes;

  [[nodiscard]] bool matches(std::uint32_t configDigest) const {
    return config == configDigest;
  }
  /// Completed profile for a core count, or nullptr.
  [[nodiscard]] const perf::RunProfile* find(int cores) const;

  [[nodiscard]] std::string encode() const;

  /// Parses what encode() produced. Returns a typed error naming the byte
  /// offset of the first deviation; never throws, never UB on bad bytes.
  /// A file that parses re-encodes to exactly its own bytes.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError> parseChecked(
      std::string_view bytes);

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
