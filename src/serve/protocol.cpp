#include "serve/protocol.hpp"

#include "exec/wire_codec.hpp"

namespace occm::serve {

namespace {

using exec::wire::putBool;
using exec::wire::putF64;
using exec::wire::putI32;
using exec::wire::putString;
using exec::wire::putU32;
using exec::wire::putU64;
using exec::wire::putU8;
using exec::wire::Reader;

void putRequest(std::string& out, const AdvisorRequest& request) {
  putU32(out, request.protocolVersion);
  putU64(out, request.requestId);
  putString(out, request.program);
  putString(out, request.problemClass);
  putString(out, request.machine);
  putI32(out, request.coreMin);
  putI32(out, request.coreMax);
  putU32(out, request.deadlineMs);
  putU8(out, static_cast<std::uint8_t>(request.tier));
  putF64(out, request.efficiencyThreshold);
}

AdvisorRequest readRequest(Reader& in) {
  AdvisorRequest request;
  request.protocolVersion = in.u32();
  request.requestId = in.u64();
  request.program = in.str();
  request.problemClass = in.str();
  request.machine = in.str();
  request.coreMin = in.i32();
  request.coreMax = in.i32();
  request.deadlineMs = in.u32();
  request.tier = static_cast<TierPreference>(
      in.enumU8("tier preference",
                static_cast<std::uint8_t>(TierPreference::kTier1)));
  request.efficiencyThreshold = in.f64();
  return request;
}

void putResponse(std::string& out, const AdvisorResponse& response) {
  putU64(out, response.requestId);
  putU8(out, static_cast<std::uint8_t>(response.status));
  putU8(out, static_cast<std::uint8_t>(response.shedReason));
  putU8(out, response.tier);
  putBool(out, response.degraded);
  putU8(out, static_cast<std::uint8_t>(response.degradeReason));
  putBool(out, response.cacheHit);
  putU32(out, response.queueDepth);
  putU32(out, static_cast<std::uint32_t>(response.rows.size()));
  for (const AdvisorRow& row : response.rows) {
    putI32(out, row.cores);
    putF64(out, row.cycles);
    putF64(out, row.omega);
    putF64(out, row.speedup);
    putF64(out, row.efficiency);
    putBool(out, row.measured);
  }
  putI32(out, response.bestCores);
  putF64(out, response.bestSpeedup);
  putI32(out, response.efficientCores);
  putString(out, response.error);
}

AdvisorResponse readResponse(Reader& in) {
  AdvisorResponse response;
  response.requestId = in.u64();
  response.status = static_cast<ResponseStatus>(in.enumU8(
      "response status", static_cast<std::uint8_t>(ResponseStatus::kError)));
  response.shedReason = static_cast<ShedReason>(in.enumU8(
      "shed reason", static_cast<std::uint8_t>(ShedReason::kBadRequest)));
  response.tier = in.enumU8("tier", 1);
  response.degraded = in.flag("degraded");
  response.degradeReason = static_cast<DegradeReason>(
      in.enumU8("degrade reason",
                static_cast<std::uint8_t>(DegradeReason::kDeadlineMiss)));
  response.cacheHit = in.flag("cache-hit");
  response.queueDepth = in.u32();
  const std::size_t rowCount = in.count("advisor rows");
  response.rows.clear();
  response.rows.reserve(in.ok() ? rowCount : 0);
  for (std::size_t i = 0; in.ok() && i < rowCount; ++i) {
    AdvisorRow row;
    row.cores = in.i32();
    row.cycles = in.f64();
    row.omega = in.f64();
    row.speedup = in.f64();
    row.efficiency = in.f64();
    row.measured = in.flag("row measured");
    response.rows.push_back(row);
  }
  response.bestCores = in.i32();
  response.bestSpeedup = in.f64();
  response.efficientCores = in.i32();
  response.error = in.str();
  return response;
}

}  // namespace

std::string encodeServeMessage(const ServeMessage& message) {
  std::string out;
  putU8(out, static_cast<std::uint8_t>(message.kind));
  switch (message.kind) {
    case ServeMessage::Kind::kRequest:
      putRequest(out, message.request);
      break;
    case ServeMessage::Kind::kResponse:
      putResponse(out, message.response);
      break;
  }
  return out;
}

Expected<ServeMessage, exec::IpcError> decodeServeMessage(
    std::string_view payload) {
  Reader in(payload);
  ServeMessage message;
  const std::uint8_t kind = in.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(ServeMessage::Kind::kRequest):
      message.kind = ServeMessage::Kind::kRequest;
      message.request = readRequest(in);
      break;
    case static_cast<std::uint8_t>(ServeMessage::Kind::kResponse):
      message.kind = ServeMessage::Kind::kResponse;
      message.response = readResponse(in);
      break;
    default:
      if (in.ok()) {
        in.fail("unknown serve message kind " + std::to_string(kind));
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

}  // namespace occm::serve
