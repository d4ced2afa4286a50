#include "exec/ipc.hpp"

#include <exception>

#include "common/cancellation.hpp"
#include "common/crc32.hpp"
#include "exec/wire_codec.hpp"

namespace occm::exec {

std::string IpcError::message() const {
  std::string out = "corrupt ipc frame (";
  out += truncated ? "truncated" : "invalid";
  out += ") at byte ";
  out += std::to_string(byteOffset);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

RunFailure caughtFailure() {
  RunFailure failure;
  try {
    throw;
  } catch (const RunAborted& aborted) {
    failure.kind = aborted.reason() == AbortReason::kCycleBudget
                       ? RunFailureKind::kTimeout
                       : RunFailureKind::kCancelled;
    failure.error = aborted.what();
  } catch (const std::exception& e) {
    failure.error = e.what();
  } catch (...) {
    failure.error = "unknown exception escaped the run";
  }
  return failure;
}

std::string encodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + kFrameOverhead);
  out.append(kFrameMagic, sizeof kFrameMagic);
  wire::putU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  wire::putU32(out, crc32(payload));
  return out;
}

}  // namespace occm::exec
