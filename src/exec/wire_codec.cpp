#include "exec/wire_codec.hpp"

#include <bit>
#include <utility>

namespace occm::exec::wire {

void putU8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void putU32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>(
        static_cast<unsigned char>((value >> shift) & 0xFFU)));
  }
}

void putU64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>(
        static_cast<unsigned char>((value >> shift) & 0xFFU)));
  }
}

void putI32(std::string& out, std::int32_t value) {
  putU32(out, static_cast<std::uint32_t>(value));
}

void putF64(std::string& out, double value) {
  putU64(out, std::bit_cast<std::uint64_t>(value));
}

void putString(std::string& out, const std::string& value) {
  putU32(out, static_cast<std::uint32_t>(value.size()));
  out += value;
}

void putBool(std::string& out, bool value) { putU8(out, value ? 1 : 0); }

void Reader::fail(const std::string& detail, bool truncated) {
  if (!ok_) {
    return;
  }
  ok_ = false;
  error_.byteOffset = pos_;
  error_.detail = detail;
  error_.truncated = truncated;
}

std::uint8_t Reader::u8() {
  if (!need(1)) {
    return 0;
  }
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Reader::u32() {
  if (!need(4)) {
    return 0;
  }
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_++]))
             << shift;
  }
  return value;
}

std::uint64_t Reader::u64() {
  if (!need(8)) {
    return 0;
  }
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_++]))
             << shift;
  }
  return value;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t length = u32();
  if (!ok_) {
    return {};
  }
  if (length > kMaxString) {
    fail("string length " + std::to_string(length) + " exceeds the " +
         std::to_string(kMaxString) + "-byte cap");
    return {};
  }
  if (!need(length)) {
    return {};
  }
  std::string out(bytes_.substr(pos_, length));
  pos_ += length;
  return out;
}

bool Reader::flag(const char* what) {
  const std::uint8_t value = u8();
  if (ok_ && value > 1) {
    fail(std::string(what) + " flag is " + std::to_string(value) +
         ", expected 0 or 1");
  }
  return value == 1;
}

std::uint8_t Reader::enumU8(const char* what, std::uint8_t maxValue) {
  const std::uint8_t value = u8();
  if (ok_ && value > maxValue) {
    fail(std::string(what) + " value " + std::to_string(value) +
         " out of range (max " + std::to_string(maxValue) + ")");
  }
  return value;
}

std::size_t Reader::count(const char* what) {
  const std::uint32_t value = u32();
  if (ok_ && value > kMaxCount) {
    fail(std::string(what) + " count " + std::to_string(value) +
         " exceeds the " + std::to_string(kMaxCount) + " cap");
    return 0;
  }
  return value;
}

bool Reader::need(std::size_t n) {
  if (!ok_) {
    return false;
  }
  if (bytes_.size() - pos_ < n) {
    fail("unexpected end of input", /*truncated=*/true);
    return false;
  }
  return true;
}

namespace {

void putCounterSet(std::string& out, const perf::CounterSet& set) {
  putU64(out, set.totalCycles);
  putU64(out, set.stallCycles);
  putU64(out, set.instructions);
  putU64(out, set.llcMisses);
}

perf::CounterSet readCounterSet(Reader& in) {
  perf::CounterSet set;
  set.totalCycles = in.u64();
  set.stallCycles = in.u64();
  set.instructions = in.u64();
  set.llcMisses = in.u64();
  return set;
}

void putControllerStats(std::string& out, const mem::ControllerStats& stats) {
  putU64(out, stats.requests);
  putU64(out, stats.writebacks);
  putU64(out, stats.remoteRequests);
  putU64(out, stats.rowHits);
  putU64(out, stats.rowMisses);
  putU64(out, stats.busyCycles);
  putU64(out, stats.totalWait);
  putU64(out, stats.totalService);
  putU64(out, stats.reroutedAway);
  putU64(out, stats.absorbed);
  putU64(out, stats.retryAttempts);
  putU64(out, stats.eccRetries);
  putU64(out, stats.background);
}

mem::ControllerStats readControllerStats(Reader& in) {
  mem::ControllerStats stats;
  stats.requests = in.u64();
  stats.writebacks = in.u64();
  stats.remoteRequests = in.u64();
  stats.rowHits = in.u64();
  stats.rowMisses = in.u64();
  stats.busyCycles = in.u64();
  stats.totalWait = in.u64();
  stats.totalService = in.u64();
  stats.reroutedAway = in.u64();
  stats.absorbed = in.u64();
  stats.retryAttempts = in.u64();
  stats.eccRetries = in.u64();
  stats.background = in.u64();
  return stats;
}

}  // namespace

void putProfile(std::string& out, const perf::RunProfile& profile) {
  putString(out, profile.program);
  putString(out, profile.machine);
  putI32(out, profile.threads);
  putI32(out, profile.activeCores);
  putCounterSet(out, profile.counters);
  putU32(out, static_cast<std::uint32_t>(profile.perCore.size()));
  for (const perf::CounterSet& set : profile.perCore) {
    putCounterSet(out, set);
  }
  putU64(out, profile.coherenceMisses);
  putU64(out, profile.writebacks);
  putU64(out, profile.contextSwitches);
  putU64(out, profile.makespan);
  putU32(out, static_cast<std::uint32_t>(profile.controllerStats.size()));
  for (const mem::ControllerStats& stats : profile.controllerStats) {
    putControllerStats(out, stats);
  }
  putI32(out, profile.channelsPerController);
  putU32(out, static_cast<std::uint32_t>(profile.missWindows.size()));
  for (const std::uint64_t window : profile.missWindows) {
    putU64(out, window);
  }
  putU64(out, profile.samplerWindowCycles);
  putU32(out, static_cast<std::uint32_t>(profile.faultEpochs.size()));
  for (const perf::FaultEpoch& epoch : profile.faultEpochs) {
    putString(out, epoch.kind);
    putI32(out, epoch.target);
    putU64(out, epoch.start);
    putU64(out, epoch.end);
    putF64(out, epoch.magnitude);
  }
  putU64(out, profile.reroutedRequests);
  putU64(out, profile.faultRetries);
  putU64(out, profile.backgroundRequests);
  putU64(out, profile.throttledCycles);
  putU64(out, profile.hotPath.eventsPopped);
  putU64(out, profile.hotPath.eventsPushed);
  putU64(out, profile.hotPath.maxEventQueueDepth);
  putU64(out, profile.hotPath.advanceTurns);
  putU64(out, profile.hotPath.issueTurns);
  putU64(out, profile.hotPath.controllerTicks);
}

perf::RunProfile readProfile(Reader& in) {
  perf::RunProfile profile;
  profile.program = in.str();
  profile.machine = in.str();
  profile.threads = in.i32();
  profile.activeCores = in.i32();
  profile.counters = readCounterSet(in);
  const std::size_t coreCount = in.count("perCore");
  for (std::size_t i = 0; in.ok() && i < coreCount; ++i) {
    profile.perCore.push_back(readCounterSet(in));
  }
  profile.coherenceMisses = in.u64();
  profile.writebacks = in.u64();
  profile.contextSwitches = in.u64();
  profile.makespan = in.u64();
  const std::size_t controllerCount = in.count("controllerStats");
  for (std::size_t i = 0; in.ok() && i < controllerCount; ++i) {
    profile.controllerStats.push_back(readControllerStats(in));
  }
  profile.channelsPerController = in.i32();
  const std::size_t windowCount = in.count("missWindows");
  for (std::size_t i = 0; in.ok() && i < windowCount; ++i) {
    profile.missWindows.push_back(in.u64());
  }
  profile.samplerWindowCycles = in.u64();
  const std::size_t epochCount = in.count("faultEpochs");
  for (std::size_t i = 0; in.ok() && i < epochCount; ++i) {
    perf::FaultEpoch epoch;
    epoch.kind = in.str();
    epoch.target = in.i32();
    epoch.start = in.u64();
    epoch.end = in.u64();
    epoch.magnitude = in.f64();
    profile.faultEpochs.push_back(std::move(epoch));
  }
  profile.reroutedRequests = in.u64();
  profile.faultRetries = in.u64();
  profile.backgroundRequests = in.u64();
  profile.throttledCycles = in.u64();
  profile.hotPath.eventsPopped = in.u64();
  profile.hotPath.eventsPushed = in.u64();
  profile.hotPath.maxEventQueueDepth = in.u64();
  profile.hotPath.advanceTurns = in.u64();
  profile.hotPath.issueTurns = in.u64();
  profile.hotPath.controllerTicks = in.u64();
  return profile;
}

void putOutcome(std::string& out, const RunOutcome& outcome) {
  putBool(out, outcome.profile.has_value());
  if (outcome.profile.has_value()) {
    putProfile(out, *outcome.profile);
  }
  putBool(out, outcome.failure.has_value());
  if (outcome.failure.has_value()) {
    const RunFailure& failure = *outcome.failure;
    putU8(out, static_cast<std::uint8_t>(failure.kind));
    putI32(out, failure.attempts);
    putBool(out, failure.recovered);
    putString(out, failure.error);
    putI32(out, failure.signal);
    putString(out, failure.rlimit);
    putString(out, failure.stderrTail);
  }
}

RunOutcome readOutcome(Reader& in) {
  RunOutcome outcome;
  if (in.flag("has-profile") && in.ok()) {
    outcome.profile = readProfile(in);
  }
  if (in.flag("has-failure") && in.ok()) {
    RunFailure failure;
    failure.kind = static_cast<RunFailureKind>(in.enumU8(
        "failure kind", static_cast<std::uint8_t>(RunFailureKind::kCrash)));
    failure.attempts = in.i32();
    failure.recovered = in.flag("recovered");
    failure.error = in.str();
    failure.signal = in.i32();
    failure.rlimit = in.str();
    failure.stderrTail = in.str();
    outcome.failure = std::move(failure);
  }
  return outcome;
}

Expected<RunOutcome, IpcError> decodeOutcome(std::string_view payload) {
  Reader in(payload);
  RunOutcome outcome = readOutcome(in);
  if (in.ok() && !in.atEnd()) {
    in.fail("trailing bytes after the outcome");
  }
  if (!in.ok()) {
    return makeUnexpected(in.error());
  }
  return outcome;
}

}  // namespace occm::exec::wire
