#pragma once

// Fixed-width little-endian wire codec shared by every exec serializer:
// the pipe IPC frames of the isolation supervisor (exec/ipc) and the TCP
// messages of the distributed coordinator/worker protocol
// (exec/distributed/protocol). One implementation means one set of
// bounds-check semantics: every read is checked, counts and string
// lengths are capped, and the first deviation latches a typed IpcError
// naming the byte offset — never a throw, never UB on arbitrary bytes.
//
// Two records are encoded here because every channel carries them: a
// run's profile (putProfile) and a run's outcome (putOutcome — the
// isolation pipe's whole payload, the body of the fleet's kResult and of
// each checkpoint record).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "exec/ipc.hpp"
#include "perf/run_profile.hpp"

namespace occm::exec::wire {

/// Caps on decoded sizes: a corrupt length must never drive a huge
/// allocation. Generous for real payloads (a 48-core machine ships a few
/// hundred counters), tight enough that a fuzzer can't balloon memory.
inline constexpr std::size_t kMaxString = std::size_t{1} << 20;
inline constexpr std::size_t kMaxCount = std::size_t{1} << 20;

void putU8(std::string& out, std::uint8_t value);
void putU32(std::string& out, std::uint32_t value);
void putU64(std::string& out, std::uint64_t value);
void putI32(std::string& out, std::int32_t value);
void putF64(std::string& out, double value);
void putString(std::string& out, const std::string& value);
void putBool(std::string& out, bool value);

/// Bounds-checked cursor over untrusted bytes. The first failed read
/// latches the error; subsequent reads return zeros so callers can decode
/// straight-line and check ok() once per structure.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] IpcError error() const { return error_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == bytes_.size(); }

  void fail(const std::string& detail, bool truncated = false);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();
  /// A u8 flag that must be 0 or 1; `what` names it in the error.
  bool flag(const char* what);
  /// An enum stored as u8, range-checked against `maxValue`.
  std::uint8_t enumU8(const char* what, std::uint8_t maxValue);
  /// Element count for a vector; capped so corrupt bytes cannot reserve
  /// gigabytes.
  std::size_t count(const char* what);

 private:
  bool need(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  IpcError error_;
};

/// Serializes a full RunProfile (everything but the trace — see
/// exec/ipc.hpp) in the isolation frame's canonical field order.
void putProfile(std::string& out, const perf::RunProfile& profile);
/// Decodes what putProfile produced; deviations latch into the Reader.
[[nodiscard]] perf::RunProfile readProfile(Reader& in);

/// Serializes a run's outcome: a has-profile flag and the profile, then a
/// has-failure flag and the failure's kind (u8), attempts, recovered,
/// error, signal, rlimit and stderr tail. cores, poolSize and worker stay
/// off the wire: the receiver knows which task it asked for. Only the
/// four run kinds (kException..kCrash) may be encoded.
void putOutcome(std::string& out, const RunOutcome& outcome);
/// Decodes what putOutcome produced; a failure kind above kCrash latches
/// an error. The caller checks for trailing bytes.
[[nodiscard]] RunOutcome readOutcome(Reader& in);
/// A whole payload that is one outcome and nothing more — the isolation
/// pipe's decoder (readOutcome plus the end-of-payload check).
[[nodiscard]] Expected<RunOutcome, IpcError> decodeOutcome(
    std::string_view payload);

}  // namespace occm::exec::wire
