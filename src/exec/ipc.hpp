#pragma once

// The frame and the isolation message shared by every framed channel in
// the repo. A frame is magic, u32 payload length, payload, u32 CRC-32 of
// the payload; encodeFrame builds one, and the one reader of frames is
// exec/frame_transport's FrameReassembler, which validates magic, length
// cap and CRC for pipes and sockets alike. The fixed-width little-endian
// encoding means bytes produced by a forked child or a remote worker
// decode bit-exactly — the foundation of the isolation mode's
// "successful runs are bit-identical to in-process runs" guarantee
// (DESIGN.md §11).
//
// ChildMessage is what an isolated sweep child reports to its supervisor
// over the result pipe: the full perf::RunProfile on success, or the
// typed failure the child caught. Its decoder is hardened against
// arbitrary bytes: every read is bounds-checked, counts and string
// lengths are capped, and any deviation produces a typed IpcError naming
// the byte offset — never a throw, never UB. fuzz/fuzz_ipc_frame.cpp
// drives it with libFuzzer.
//
// Not serialized: RunProfile::trace (the observability payload). A child
// ships counters, per-core sets, controller stats, miss windows and fault
// epochs; traces stay a single-process feature (documented on
// IsolationConfig).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
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

  /// "corrupt ipc frame (truncated) at byte 12: ..."
  [[nodiscard]] std::string message() const;
};

/// What one isolated attempt reports back over the pipe.
struct ChildMessage {
  enum class Kind : std::uint8_t {
    kProfile = 1,    ///< the run completed; `profile` is the result
    kException = 2,  ///< the run threw; `error` is what()
    kAborted = 3,    ///< RunAborted unwound the run (budget/cancel)
  };

  Kind kind = Kind::kException;
  perf::RunProfile profile;  ///< kProfile only
  std::string error;         ///< kException / kAborted
  /// kAborted only: the AbortReason's numeric value and the cycle it
  /// fired at, so the parent can rethrow an equivalent RunAborted.
  std::uint8_t abortReason = 0;
  std::uint64_t abortCycle = 0;
};

/// Serializes a message payload (no frame header; see encodeFrame).
[[nodiscard]] std::string encodeChildMessage(const ChildMessage& message);

/// Decodes what encodeChildMessage produced. Bounds-checked on every
/// field; arbitrary bytes yield a typed error, never a crash.
[[nodiscard]] Expected<ChildMessage, IpcError> decodeChildMessage(
    std::string_view payload);

/// Wraps a payload in the wire frame: magic, u32 length, payload bytes,
/// u32 CRC-32 of the payload.
[[nodiscard]] std::string encodeFrame(std::string_view payload);

}  // namespace occm::exec
