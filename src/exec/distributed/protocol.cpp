#include "exec/distributed/protocol.hpp"

#include "exec/wire_codec.hpp"

namespace occm::exec::dist {

namespace {

using topology::CacheLevelSpec;
using topology::MachineSpec;
using wire::putBool;
using wire::putF64;
using wire::putI32;
using wire::putString;
using wire::putU32;
using wire::putU64;
using wire::putU8;
using wire::Reader;

void putMachine(std::string& out, const MachineSpec& m) {
  putString(out, m.name);
  putF64(out, m.clockGhz);
  putI32(out, m.sockets);
  putI32(out, m.diesPerSocket);
  putI32(out, m.coresPerDie);
  putI32(out, m.smtPerCore);
  putU32(out, static_cast<std::uint32_t>(m.caches.size()));
  for (const CacheLevelSpec& c : m.caches) {
    putI32(out, c.level);
    putU64(out, c.size);
    putU64(out, c.lineSize);
    putU32(out, c.associativity);
    putU64(out, c.hitLatency);
    putU8(out, static_cast<std::uint8_t>(c.scope));
  }
  putU8(out, static_cast<std::uint8_t>(m.memoryArchitecture));
  putU8(out, static_cast<std::uint8_t>(m.controllerScope));
  putI32(out, m.channelsPerController);
  putU64(out, m.dramLatency);
  putU64(out, m.rowHitServiceCycles);
  putU64(out, m.rowMissServiceCycles);
  putU64(out, m.rowBytes);
  putI32(out, m.banksPerChannel);
  putI32(out, m.prefetchMlp);
  putU64(out, m.busServiceCycles);
  putU64(out, m.hopCycles);
  putU64(out, m.linkServiceCycles);
  putU32(out, static_cast<std::uint32_t>(m.hopMatrix.size()));
  for (const std::vector<int>& row : m.hopMatrix) {
    putU32(out, static_cast<std::uint32_t>(row.size()));
    for (int hop : row) {
      putI32(out, hop);
    }
  }
  putI32(out, m.corePerMlp);
  putU64(out, m.pageSize);
  putF64(out, m.scaleFactor);
}

MachineSpec readMachine(Reader& in) {
  MachineSpec m;
  m.name = in.str();
  m.clockGhz = in.f64();
  m.sockets = in.i32();
  m.diesPerSocket = in.i32();
  m.coresPerDie = in.i32();
  m.smtPerCore = in.i32();
  const std::size_t cacheCount = in.count("cache levels");
  m.caches.clear();
  m.caches.reserve(in.ok() ? cacheCount : 0);
  for (std::size_t i = 0; in.ok() && i < cacheCount; ++i) {
    CacheLevelSpec c;
    c.level = in.i32();
    c.size = in.u64();
    c.lineSize = in.u64();
    c.associativity = in.u32();
    c.hitLatency = in.u64();
    c.scope = static_cast<topology::CacheScope>(in.enumU8(
        "cache scope",
        static_cast<std::uint8_t>(topology::CacheScope::kMachine)));
    m.caches.push_back(c);
  }
  m.memoryArchitecture = static_cast<topology::MemoryArchitecture>(in.enumU8(
      "memory architecture",
      static_cast<std::uint8_t>(topology::MemoryArchitecture::kNuma)));
  m.controllerScope = static_cast<topology::ControllerScope>(in.enumU8(
      "controller scope",
      static_cast<std::uint8_t>(topology::ControllerScope::kPerDie)));
  m.channelsPerController = in.i32();
  m.dramLatency = in.u64();
  m.rowHitServiceCycles = in.u64();
  m.rowMissServiceCycles = in.u64();
  m.rowBytes = in.u64();
  m.banksPerChannel = in.i32();
  m.prefetchMlp = in.i32();
  m.busServiceCycles = in.u64();
  m.hopCycles = in.u64();
  m.linkServiceCycles = in.u64();
  const std::size_t rows = in.count("hop matrix rows");
  m.hopMatrix.clear();
  m.hopMatrix.reserve(in.ok() ? rows : 0);
  for (std::size_t r = 0; in.ok() && r < rows; ++r) {
    const std::size_t cols = in.count("hop matrix columns");
    std::vector<int> row;
    row.reserve(in.ok() ? cols : 0);
    for (std::size_t c = 0; in.ok() && c < cols; ++c) {
      row.push_back(in.i32());
    }
    m.hopMatrix.push_back(std::move(row));
  }
  m.corePerMlp = in.i32();
  m.pageSize = in.u64();
  m.scaleFactor = in.f64();
  return m;
}

void putJob(std::string& out, const JobSpec& job) {
  putU64(out, job.taskId);
  putI32(out, job.cores);
  putI32(out, job.maxAttempts);
  putString(out, job.program);
  putString(out, job.problemClass);
  putI32(out, job.threads);
  putU64(out, job.workloadSeed);
  putMachine(out, job.machine);
  putU64(out, job.schedQuantum);
  putU64(out, job.schedSwitchCost);
  putU8(out, job.memPlacement);
  putU8(out, job.memService);
  putU64(out, job.memSeed);
  putBool(out, job.enableSampler);
  putF64(out, job.samplerWindowNs);
  putU64(out, job.syncHorizon);
  putU64(out, job.cycleBudget);
  putU64(out, job.simSeed);
  putString(out, job.faultPlanJson);
}

JobSpec readJob(Reader& in) {
  JobSpec job;
  job.taskId = in.u64();
  job.cores = in.i32();
  job.maxAttempts = in.i32();
  job.program = in.str();
  job.problemClass = in.str();
  job.threads = in.i32();
  job.workloadSeed = in.u64();
  job.machine = readMachine(in);
  job.schedQuantum = in.u64();
  job.schedSwitchCost = in.u64();
  // Placement/service enums live in mem::, which exec does not name;
  // range bounds match mem::PlacementPolicy and mem::ServiceDiscipline
  // (re-validated by the analysis glue that rebuilds the SimConfig).
  job.memPlacement = in.enumU8("placement policy", 3);
  job.memService = in.enumU8("service discipline", 1);
  job.memSeed = in.u64();
  job.enableSampler = in.flag("sampler");
  job.samplerWindowNs = in.f64();
  job.syncHorizon = in.u64();
  job.cycleBudget = in.u64();
  job.simSeed = in.u64();
  job.faultPlanJson = in.str();
  return job;
}

}  // namespace

std::string encodeMessage(const WireMessage& message) {
  std::string out;
  putU8(out, static_cast<std::uint8_t>(message.kind));
  switch (message.kind) {
    case WireMessage::Kind::kHello:
      putU32(out, message.protocolVersion);
      putString(out, message.workerId);
      break;
    case WireMessage::Kind::kWelcome:
      putU32(out, message.protocolVersion);
      break;
    case WireMessage::Kind::kReject:
    case WireMessage::Kind::kShutdown:
      putString(out, message.reason);
      break;
    case WireMessage::Kind::kAssign:
      putJob(out, message.job);
      break;
    case WireMessage::Kind::kResult:
      putU64(out, message.result.taskId);
      wire::putOutcome(out, message.result.outcome);
      break;
    case WireMessage::Kind::kPing:
    case WireMessage::Kind::kPong:
      putU64(out, message.pingId);
      putU64(out, message.pingSentNs);
      break;
  }
  return out;
}

Expected<WireMessage, IpcError> decodeMessage(std::string_view payload) {
  Reader in(payload);
  WireMessage message;
  const std::uint8_t kind = in.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(WireMessage::Kind::kHello):
      message.kind = WireMessage::Kind::kHello;
      message.protocolVersion = in.u32();
      message.workerId = in.str();
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kWelcome):
      message.kind = WireMessage::Kind::kWelcome;
      message.protocolVersion = in.u32();
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kReject):
      message.kind = WireMessage::Kind::kReject;
      message.reason = in.str();
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kShutdown):
      message.kind = WireMessage::Kind::kShutdown;
      message.reason = in.str();
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kAssign):
      message.kind = WireMessage::Kind::kAssign;
      message.job = readJob(in);
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kResult):
      message.kind = WireMessage::Kind::kResult;
      message.result.taskId = in.u64();
      message.result.outcome = wire::readOutcome(in);
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kPing):
      message.kind = WireMessage::Kind::kPing;
      message.pingId = in.u64();
      message.pingSentNs = in.u64();
      break;
    case static_cast<std::uint8_t>(WireMessage::Kind::kPong):
      message.kind = WireMessage::Kind::kPong;
      message.pingId = in.u64();
      message.pingSentNs = in.u64();
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

}  // namespace occm::exec::dist
