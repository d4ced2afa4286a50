#include "analysis/sweep_state.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/crc32.hpp"
#include "common/json_reader.hpp"
#include "exec/frame_transport.hpp"
#include "exec/wire_codec.hpp"
#include "obs/chrome_trace.hpp"

namespace occm::analysis {

namespace {

// A failure record's CRC covers a canonical field encoding — not the
// JSON bytes — so whitespace or key reordering never invalidates it,
// while any change to a field's *value* does.
std::string failurePayload(const RunFailure& f) {
  std::string out = "fail|";
  out += std::to_string(f.cores);
  out += '|';
  out += std::to_string(f.attempts);
  out += '|';
  out += f.recovered ? '1' : '0';
  out += '|';
  out += std::to_string(f.poolSize);
  out += '|';
  out += toString(f.kind);
  out += '|';
  out += f.error;
  // Crash detail joins the payload only for crash records, matching the
  // fields toJson writes.
  if (f.kind == RunFailureKind::kCrash) {
    out += '|';
    out += std::to_string(f.signal);
    out += '|';
    out += f.rlimit;
    out += '|';
    out += f.stderrTail;
  }
  return out;
}

std::string crcHex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

std::string toHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xFU];
  }
  return out;
}

int hexDigit(char ch) {
  if (ch >= '0' && ch <= '9') {
    return ch - '0';
  }
  if (ch >= 'a' && ch <= 'f') {
    return ch - 'a' + 10;
  }
  return -1;
}

/// Inverse of toHex: even length, lowercase digits only.
bool fromHex(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hexDigit(hex[i]);
    const int lo = hexDigit(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Reads a string holding 8 lowercase hex digits (a CRC-32 or the config
/// digest); anything else fails the reader.
std::uint32_t readHex32(JsonReader& reader, const char* field) {
  std::string bytes;
  const std::string text = reader.parseString();
  if (reader.ok() && (text.size() != 8 || !fromHex(text, &bytes))) {
    reader.fail(std::string(field) + " is not 8 lowercase hex digits");
  }
  std::uint32_t value = 0;
  for (const char byte : bytes) {
    value = (value << 8) | static_cast<unsigned char>(byte);
  }
  return value;
}

bool parseFailureKind(const std::string& text, RunFailureKind* out) {
  for (const RunFailureKind kind :
       {RunFailureKind::kException, RunFailureKind::kTimeout,
        RunFailureKind::kCancelled, RunFailureKind::kCrash,
        RunFailureKind::kWorkerLost, RunFailureKind::kHandshake,
        RunFailureKind::kFrameCorrupt}) {
    if (text == toString(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

CheckpointError readerError(const JsonReader& reader) {
  CheckpointError err;
  err.kind = reader.truncated() ? CheckpointErrorKind::kTruncated
                                : CheckpointErrorKind::kSyntax;
  err.byteOffset = reader.errorOffset();
  err.detail = reader.errorDetail();
  return err;
}

CheckpointError errorAt(CheckpointErrorKind kind, std::size_t offset,
                        std::string detail) {
  CheckpointError err;
  err.kind = kind;
  err.byteOffset = offset;
  err.detail = std::move(detail);
  return err;
}

/// The error for a record whose stored CRC is absent or differs from
/// the CRC of `payload`; nullopt when they agree.
std::optional<CheckpointError> checkCrc(std::size_t recordOffset,
                                        const char* record,
                                        std::optional<std::uint32_t> stored,
                                        std::string_view payload) {
  const std::uint32_t computed = crc32(payload);
  if (!stored) {
    return errorAt(CheckpointErrorKind::kCrcMismatch, recordOffset,
                   std::string(record) + " record is missing its crc");
  }
  if (*stored != computed) {
    return errorAt(CheckpointErrorKind::kCrcMismatch, recordOffset,
                   std::string(record) + " record crc mismatch (stored " +
                       crcHex(*stored) + ", computed " + crcHex(computed) +
                       ")");
  }
  return std::nullopt;
}

/// Decodes one run record's profile: hex -> bytes, CRC, wire decode. The
/// profile must fill the bytes exactly and name the record's core count.
Expected<perf::RunProfile, CheckpointError> decodeRun(
    std::size_t recordOffset, int cores, const std::string& hex,
    std::optional<std::uint32_t> storedCrc) {
  std::string bytes;
  if (!fromHex(hex, &bytes)) {
    return makeUnexpected(
        errorAt(CheckpointErrorKind::kSyntax, recordOffset,
                "run profile is not an even-length lowercase hex string"));
  }
  if (std::optional<CheckpointError> err =
          checkCrc(recordOffset, "run", storedCrc, bytes)) {
    return makeUnexpected(std::move(*err));
  }
  exec::wire::Reader in(bytes);
  perf::RunProfile profile = exec::wire::readProfile(in);
  if (in.ok() && !in.atEnd()) {
    in.fail("trailing bytes after the profile");
  }
  if (!in.ok()) {
    return makeUnexpected(errorAt(
        CheckpointErrorKind::kSyntax, recordOffset,
        "run profile does not decode at profile byte " +
            std::to_string(in.error().byteOffset) + ": " +
            in.error().detail));
  }
  if (profile.activeCores != cores) {
    return makeUnexpected(errorAt(
        CheckpointErrorKind::kSyntax, recordOffset,
        "run record for " + std::to_string(cores) +
            " cores holds a profile of " +
            std::to_string(profile.activeCores)));
  }
  return profile;
}

CheckpointError unversioned(std::size_t offset) {
  return errorAt(CheckpointErrorKind::kVersionSkew, offset,
                 "checkpoint does not open with its format version "
                 "(format 1 had none); this build reads version " +
                     std::to_string(SweepCheckpoint::kFormatVersion));
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
  for (const perf::RunProfile& run : runs) {
    if (run.activeCores == cores) {
      return &run;
    }
  }
  return nullptr;
}

std::string SweepCheckpoint::toJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << kFormatVersion << ",\n";
  out << "  \"program\": \"" << obs::jsonEscape(program) << "\",\n";
  out << "  \"machine\": \"" << obs::jsonEscape(machine) << "\",\n";
  out << "  \"config\": \"" << crcHex(config) << "\",\n";
  out << "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::string bytes;
    exec::wire::putProfile(bytes, runs[i]);
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"cores\": " << runs[i].activeCores << ", \"profile\": \""
        << toHex(bytes) << "\", \"crc\": \"" << crcHex(crc32(bytes))
        << "\"}";
  }
  out << (runs.empty() ? "],\n" : "\n  ],\n");
  out << "  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const RunFailure& f = failures[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"cores\": " << f.cores << ", \"attempts\": " << f.attempts
        << ", \"recovered\": " << (f.recovered ? "true" : "false")
        << ", \"poolSize\": " << f.poolSize
        << ", \"kind\": \"" << toString(f.kind) << "\"";
    if (f.kind == RunFailureKind::kCrash) {
      out << ", \"signal\": " << f.signal
          << ", \"rlimit\": \"" << obs::jsonEscape(f.rlimit) << "\""
          << ", \"stderrTail\": \"" << obs::jsonEscape(f.stderrTail) << "\"";
    }
    out << ", \"error\": \"" << obs::jsonEscape(f.error) << "\""
        << ", \"crc\": \"" << crcHex(crc32(failurePayload(f))) << "\"}";
  }
  out << (failures.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

Expected<SweepCheckpoint, CheckpointError> SweepCheckpoint::parseChecked(
    const std::string& json) {
  JsonReader reader(json);
  SweepCheckpoint state;
  // A part that parsed but failed its own checks (version, CRC, profile).
  std::optional<CheckpointError> bad;
  // The version comes first: it decides how everything after it parses.
  bool versioned = false;
  const auto parseRun = [&] {
    reader.skipWs();
    const std::size_t recordOffset = reader.offset();
    int cores = 0;
    std::string hex;
    std::optional<std::uint32_t> crc;
    if (!reader.parseObject([&](const std::string& field, std::size_t) {
          if (field == "cores") {
            cores = reader.parseInt("cores");
          } else if (field == "profile") {
            hex = reader.parseString();
          } else if (field == "crc") {
            crc = readHex32(reader, "crc");
          } else {
            reader.fail("unknown run field \"" + field + "\"");
          }
          return reader.ok();
        })) {
      return false;
    }
    Expected<perf::RunProfile, CheckpointError> run =
        decodeRun(recordOffset, cores, hex, crc);
    if (!run) {
      bad = run.error();
      return false;
    }
    state.runs.push_back(std::move(*run));
    return true;
  };
  const auto parseFailure = [&] {
    reader.skipWs();
    const std::size_t recordOffset = reader.offset();
    RunFailure failure;
    std::optional<std::uint32_t> crc;
    if (!reader.parseObject([&](const std::string& field, std::size_t) {
          if (field == "cores") {
            failure.cores = reader.parseInt("cores");
          } else if (field == "attempts") {
            failure.attempts = reader.parseInt("attempts");
          } else if (field == "recovered") {
            failure.recovered = reader.parseBool();
          } else if (field == "poolSize") {
            failure.poolSize = reader.parseInt("poolSize");
          } else if (field == "kind") {
            const std::string kindText = reader.parseString();
            if (reader.ok() && !parseFailureKind(kindText, &failure.kind)) {
              reader.fail("unknown failure kind \"" + kindText + "\"");
            }
          } else if (field == "signal") {
            // Present only on crash records; absent fields keep their
            // zero defaults.
            failure.signal = reader.parseInt("signal");
          } else if (field == "rlimit") {
            failure.rlimit = reader.parseString();
          } else if (field == "stderrTail") {
            failure.stderrTail = reader.parseString();
          } else if (field == "error") {
            failure.error = reader.parseString();
          } else if (field == "crc") {
            crc = readHex32(reader, "crc");
          } else {
            reader.fail("unknown failure field \"" + field + "\"");
          }
          return reader.ok();
        })) {
      return false;
    }
    bad = checkCrc(recordOffset, "failure", crc, failurePayload(failure));
    if (bad) {
      return false;
    }
    state.failures.push_back(std::move(failure));
    return true;
  };
  reader.parseObject([&](const std::string& key, std::size_t keyOffset) {
    if (!versioned && key != "version") {
      bad = unversioned(keyOffset);
      return false;
    }
    if (key == "version") {
      reader.skipWs();
      const std::size_t versionOffset = reader.offset();
      const int version = reader.parseInt("version");
      if (reader.ok() && version != kFormatVersion) {
        bad = errorAt(CheckpointErrorKind::kVersionSkew, versionOffset,
                      "checkpoint format version " + std::to_string(version) +
                          "; this build reads version " +
                          std::to_string(kFormatVersion));
        return false;
      }
      versioned = true;
    } else if (key == "program") {
      state.program = reader.parseString();
    } else if (key == "machine") {
      state.machine = reader.parseString();
    } else if (key == "config") {
      state.config = readHex32(reader, "config");
    } else if (key == "runs") {
      reader.parseArray(parseRun);
    } else if (key == "failures") {
      reader.parseArray(parseFailure);
    } else {
      reader.fail("unknown checkpoint key \"" + key + "\"");
    }
    return reader.ok() && !bad;
  });
  if (bad) {
    return makeUnexpected(std::move(*bad));
  }
  if (reader.ok() && !reader.atEnd()) {
    reader.fail("trailing bytes after the checkpoint object");
  }
  if (!reader.ok()) {
    return makeUnexpected(readerError(reader));
  }
  if (!versioned) {
    return makeUnexpected(unversioned(0));
  }
  return state;
}

bool SweepCheckpoint::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const std::string body = toJson();
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
    CheckpointError err;
    err.kind = CheckpointErrorKind::kMissing;
    err.detail = "no checkpoint at " + path;
    return makeUnexpected(err);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CheckpointError err;
    err.kind = CheckpointErrorKind::kIoError;
    err.detail = "cannot open " + path;
    return makeUnexpected(err);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    CheckpointError err;
    err.kind = CheckpointErrorKind::kIoError;
    err.detail = "read failed on " + path;
    return makeUnexpected(err);
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
