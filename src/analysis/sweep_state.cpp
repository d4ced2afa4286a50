#include "analysis/sweep_state.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "exec/frame_transport.hpp"
#include "exec/wire_codec.hpp"

namespace occm::analysis {

namespace {

Unexpected<CheckpointError> failAt(CheckpointErrorKind kind,
                                   std::size_t offset, std::string detail) {
  return makeUnexpected(CheckpointError{kind, offset, std::move(detail), {}});
}

/// The syntax error of a payload at file offset `payloadAt` that `in` did
/// not decode exactly.
Unexpected<CheckpointError> undecodable(std::size_t payloadAt,
                                        const std::string& what,
                                        exec::wire::Reader& in) {
  if (in.ok()) {
    in.fail("trailing bytes after the " + what);
  }
  return failAt(CheckpointErrorKind::kSyntax,
                payloadAt + in.error().byteOffset,
                what + " does not decode: " + in.error().detail);
}

}  // namespace

std::string CheckpointError::message() const {
  std::string out = "corrupt checkpoint (";
  out += toString(kind);
  out += ')';
  if (kind != CheckpointErrorKind::kMissing &&
      kind != CheckpointErrorKind::kIoError) {
    out += " at byte ";
    out += std::to_string(byteOffset);
  }
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  if (!quarantinedTo.empty()) {
    out += " (quarantined to ";
    out += quarantinedTo;
    out += ')';
  }
  return out;
}

const perf::RunProfile* SweepCheckpoint::find(int cores) const {
  const auto it = outcomes.find(cores);
  return it == outcomes.end() || !it->second.profile.has_value()
             ? nullptr
             : &*it->second.profile;
}

std::string SweepCheckpoint::encode() const {
  std::string header;
  exec::wire::putU32(header, kFormatVersion);
  exec::wire::putString(header, program);
  exec::wire::putString(header, machine);
  exec::wire::putU32(header, config);
  exec::wire::putU32(header, static_cast<std::uint32_t>(outcomes.size()));
  std::string out = exec::encodeFrame(header);
  for (const auto& [cores, outcome] : outcomes) {
    std::string record;
    exec::wire::putI32(record, cores);
    exec::wire::putI32(record,
                       outcome.failure.has_value() ? outcome.failure->poolSize
                                                   : 0);
    exec::wire::putOutcome(record, outcome);
    out += exec::encodeFrame(record);
  }
  return out;
}

Expected<SweepCheckpoint, CheckpointError> SweepCheckpoint::parseChecked(
    std::string_view bytes) {
  using Kind = CheckpointErrorKind;
  const std::string reads =
      "; this build reads version " + std::to_string(kFormatVersion);
  if (!bytes.empty() && bytes.front() == '{') {
    return failAt(Kind::kVersionSkew, 0,
                  "a JSON checkpoint (formats 1-3)" + reads);
  }
  exec::FrameReassembler frames;
  if (!frames.feed(bytes)) {
    const exec::IpcError& err = frames.error();
    return failAt(err.crcMismatch ? Kind::kCrcMismatch : Kind::kSyntax,
                  err.byteOffset, err.detail);
  }
  // Where the whole frames end: the start of a partial frame, or the end
  // of the file.
  const std::size_t wholeFrames = bytes.size() - frames.buffered();
  const std::optional<std::string> header = frames.next();
  if (!header) {
    return failAt(Kind::kTruncated, wholeFrames,
                  "the file ends inside its header frame");
  }
  SweepCheckpoint state;
  exec::wire::Reader in(*header);
  const std::uint32_t version = in.u32();
  if (in.ok() && version != kFormatVersion) {
    return failAt(Kind::kVersionSkew, exec::kFrameHeaderSize,
                  "checkpoint format version " + std::to_string(version) +
                      reads);
  }
  state.program = in.str();
  state.machine = in.str();
  state.config = in.u32();
  const std::uint32_t count = in.u32();
  if (!in.ok() || !in.atEnd()) {
    return undecodable(exec::kFrameHeaderSize, "header", in);
  }
  std::size_t frameAt = exec::kFrameOverhead + header->size();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::optional<std::string> record = frames.next();
    if (!record) {
      return failAt(Kind::kTruncated, wholeFrames,
                    "the file ends after " + std::to_string(i) + " of " +
                        std::to_string(count) + " records");
    }
    exec::wire::Reader rec(*record);
    const int cores = rec.i32();
    const int poolSize = rec.i32();
    exec::RunOutcome outcome = exec::wire::readOutcome(rec);
    if (!rec.ok() || !rec.atEnd()) {
      return undecodable(frameAt + exec::kFrameHeaderSize, "record", rec);
    }
    const std::string what = "record for " + std::to_string(cores) + " cores";
    if (!state.outcomes.empty() && cores <= state.outcomes.rbegin()->first) {
      return failAt(Kind::kSyntax, frameAt,
                    what + " follows the one for " +
                        std::to_string(state.outcomes.rbegin()->first));
    }
    if (outcome.profile && outcome.profile->activeCores != cores) {
      return failAt(Kind::kSyntax, frameAt,
                    what + " holds a profile of " +
                        std::to_string(outcome.profile->activeCores));
    }
    if (outcome.failure) {
      outcome.failure->cores = cores;
      outcome.failure->poolSize = poolSize;
    } else if (poolSize != 0) {
      return failAt(Kind::kSyntax, frameAt,
                    what + " has a pool size but no failure");
    }
    state.outcomes.emplace_hint(state.outcomes.end(), cores,
                                std::move(outcome));
    frameAt += exec::kFrameOverhead + record->size();
  }
  if (frames.next()) {
    return failAt(Kind::kSyntax, frameAt,
                  "more records than the header's " + std::to_string(count));
  }
  if (frames.buffered() > 0) {
    return failAt(Kind::kTruncated, wholeFrames,
                  "the file ends inside a frame");
  }
  return state;
}

bool SweepCheckpoint::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const std::string body = encode();
  // Durable variant of write-temp-then-rename: fsync the temp file before
  // the rename (so the rename can never expose a hole) and fsync the
  // containing directory after it (the rename itself lives in directory
  // metadata; without this a machine crash right after save() can roll
  // the path back to the previous — or no — checkpoint).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  if (!exec::sendAllBytes(fd, body, /*isSocket=*/false)) {
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dirFd = ::open(dir.c_str(), O_RDONLY);
  if (dirFd >= 0) {
    // Best-effort: some filesystems reject directory fsync; the rename
    // already succeeded, so refusal does not fail the save.
    ::fsync(dirFd);
    ::close(dirFd);
  }
  return true;
}

Expected<SweepCheckpoint, CheckpointError> SweepCheckpoint::loadChecked(
    const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return failAt(CheckpointErrorKind::kMissing, 0, "no checkpoint at " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return failAt(CheckpointErrorKind::kIoError, 0, "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return failAt(CheckpointErrorKind::kIoError, 0, "read failed on " + path);
  }
  return parseChecked(buffer.str());
}

Expected<SweepCheckpoint, CheckpointError> SweepCheckpoint::loadOrQuarantine(
    const std::string& path) {
  Expected<SweepCheckpoint, CheckpointError> result = loadChecked(path);
  if (result) {
    return result;
  }
  CheckpointError err = result.error();
  // Only parse-shaped failures prove the *file* is bad; a missing file is
  // a fresh start and an I/O error may be transient — neither is evidence
  // worth preserving.
  if (err.kind != CheckpointErrorKind::kMissing &&
      err.kind != CheckpointErrorKind::kIoError) {
    const std::string dest = path + ".corrupt";
    if (std::rename(path.c_str(), dest.c_str()) == 0) {
      err.quarantinedTo = dest;
    }
  }
  return makeUnexpected(std::move(err));
}

}  // namespace occm::analysis
