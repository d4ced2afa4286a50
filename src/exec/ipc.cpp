#include "exec/ipc.hpp"

#include "common/crc32.hpp"
#include "exec/wire_codec.hpp"

namespace occm::exec {

namespace {

using wire::putString;
using wire::putU32;
using wire::putU64;
using wire::putU8;
using wire::Reader;

}  // namespace

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

std::string encodeChildMessage(const ChildMessage& message) {
  std::string out;
  putU8(out, static_cast<std::uint8_t>(message.kind));
  switch (message.kind) {
    case ChildMessage::Kind::kProfile:
      wire::putProfile(out, message.profile);
      break;
    case ChildMessage::Kind::kException:
      putString(out, message.error);
      break;
    case ChildMessage::Kind::kAborted:
      putString(out, message.error);
      putU8(out, message.abortReason);
      putU64(out, message.abortCycle);
      break;
  }
  return out;
}

Expected<ChildMessage, IpcError> decodeChildMessage(std::string_view payload) {
  Reader in(payload);
  ChildMessage message;
  const std::uint8_t kind = in.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(ChildMessage::Kind::kProfile):
      message.kind = ChildMessage::Kind::kProfile;
      message.profile = wire::readProfile(in);
      break;
    case static_cast<std::uint8_t>(ChildMessage::Kind::kException):
      message.kind = ChildMessage::Kind::kException;
      message.error = in.str();
      break;
    case static_cast<std::uint8_t>(ChildMessage::Kind::kAborted):
      message.kind = ChildMessage::Kind::kAborted;
      message.error = in.str();
      message.abortReason = in.u8();
      message.abortCycle = in.u64();
      break;
    default:
      if (in.ok()) {
        in.fail("unknown message kind " + std::to_string(kind));
      }
      break;
  }
  if (in.ok() && !in.atEnd()) {
    in.fail("trailing bytes after the message");
  }
  if (!in.ok()) {
    return makeUnexpected(in.error());
  }
  return message;
}

std::string encodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + kFrameOverhead);
  out.append(kFrameMagic, sizeof kFrameMagic);
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  putU32(out, crc32(payload));
  return out;
}

}  // namespace occm::exec
