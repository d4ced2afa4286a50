#include "analysis/sweep_state.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/json_reader.hpp"
#include "exec/frame_transport.hpp"
#include "obs/chrome_trace.hpp"

namespace occm::analysis {

namespace {

/// Canonical double formatting shared by the JSON emitter and the CRC
/// payloads: %.17g round-trips every double, and computing both the JSON
/// text and the checksum from the same string means a value that survives
/// a parse round-trip always re-produces its own CRC.
std::string fmtDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// The CRC covers a canonical field encoding — not the JSON bytes — so
// whitespace or key reordering never invalidates a record, while any
// change to a field's *value* does. Writer and loader both derive the
// payload from the in-memory record via these two helpers.
std::string runPayload(const RunRecord& r) {
  std::string out = "run|";
  out += std::to_string(r.cores);
  for (const double value :
       {r.totalCycles, r.stallCycles, r.makespan, r.llcMisses,
        r.coherenceMisses, r.writebacks, r.reroutedRequests, r.faultRetries,
        r.backgroundRequests, r.throttledCycles}) {
    out += '|';
    out += fmtDouble(value);
  }
  return out;
}

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
  // Crash detail joins the payload only for crash records, so the CRCs
  // of every record an existing v2 file can contain are unchanged.
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

bool parseCrcHex(const std::string& text, std::uint32_t* out) {
  if (text.size() != 8) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 16);
  if (end != text.c_str() + 8 || errno == ERANGE) {
    return false;
  }
  *out = static_cast<std::uint32_t>(value);
  return true;
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

CheckpointError crcError(std::size_t recordOffset, std::string detail) {
  CheckpointError err;
  err.kind = CheckpointErrorKind::kCrcMismatch;
  err.byteOffset = recordOffset;
  err.detail = std::move(detail);
  return err;
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

bool SweepCheckpoint::matches(const std::string& programName,
                              const std::string& machineName,
                              std::uint64_t seedValue,
                              int threadCount) const {
  return program == programName && machine == machineName &&
         seed == seedValue && threads == threadCount;
}

const RunRecord* SweepCheckpoint::find(int cores) const {
  for (const RunRecord& r : runs) {
    if (r.cores == cores) {
      return &r;
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
  // The seed is a string: a 64-bit value does not survive a double.
  out << "  \"seed\": \"" << seed << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"cores\": " << r.cores
        << ", \"totalCycles\": " << fmtDouble(r.totalCycles)
        << ", \"stallCycles\": " << fmtDouble(r.stallCycles)
        << ", \"makespan\": " << fmtDouble(r.makespan)
        << ", \"llcMisses\": " << fmtDouble(r.llcMisses)
        << ", \"coherenceMisses\": " << fmtDouble(r.coherenceMisses)
        << ", \"writebacks\": " << fmtDouble(r.writebacks)
        << ", \"rerouted\": " << fmtDouble(r.reroutedRequests)
        << ", \"faultRetries\": " << fmtDouble(r.faultRetries)
        << ", \"background\": " << fmtDouble(r.backgroundRequests)
        << ", \"throttledCycles\": " << fmtDouble(r.throttledCycles)
        << ", \"crc\": \"" << crcHex(crc32(runPayload(r))) << "\"}";
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
  // Legacy (pre-CRC) checkpoints carry no header; absence means v1 and
  // no per-record checksums to demand.
  int version = 1;
  if (!reader.consume('{')) {
    return makeUnexpected(readerError(reader));
  }
  bool first = true;
  while (reader.ok() && !reader.peek('}')) {
    if (!first && !reader.consume(',')) {
      return makeUnexpected(readerError(reader));
    }
    first = false;
    const std::string key = reader.parseString();
    if (!reader.consume(':')) {
      return makeUnexpected(readerError(reader));
    }
    if (key == "version") {
      reader.skipWs();
      const std::size_t versionOffset = reader.offset();
      version = reader.parseInt("version");
      if (reader.ok() && (version < 1 || version > kFormatVersion)) {
        CheckpointError err;
        err.kind = CheckpointErrorKind::kVersionSkew;
        err.byteOffset = versionOffset;
        err.detail = "checkpoint format version " + std::to_string(version) +
                     "; this build reads versions 1.." +
                     std::to_string(kFormatVersion);
        return makeUnexpected(err);
      }
    } else if (key == "program") {
      state.program = reader.parseString();
    } else if (key == "machine") {
      state.machine = reader.parseString();
    } else if (key == "seed") {
      const std::string digits = reader.parseString();
      errno = 0;
      char* end = nullptr;
      state.seed = std::strtoull(digits.c_str(), &end, 10);
      if (end == digits.c_str() || *end != '\0' || errno == ERANGE) {
        reader.fail("seed is not a decimal 64-bit integer");
      }
    } else if (key == "threads") {
      state.threads = reader.parseInt("threads");
    } else if (key == "runs") {
      if (!reader.consume('[')) {
        return makeUnexpected(readerError(reader));
      }
      while (reader.ok() && !reader.peek(']')) {
        if (!state.runs.empty() && !reader.consume(',')) {
          return makeUnexpected(readerError(reader));
        }
        reader.skipWs();
        const std::size_t recordOffset = reader.offset();
        RunRecord record;
        bool hasCrc = false;
        std::uint32_t storedCrc = 0;
        if (!reader.consume('{')) {
          return makeUnexpected(readerError(reader));
        }
        bool innerFirst = true;
        while (reader.ok() && !reader.peek('}')) {
          if (!innerFirst && !reader.consume(',')) {
            return makeUnexpected(readerError(reader));
          }
          innerFirst = false;
          const std::string field = reader.parseString();
          if (!reader.consume(':')) {
            return makeUnexpected(readerError(reader));
          }
          if (field == "cores") {
            record.cores = reader.parseInt("cores");
          } else if (field == "totalCycles") {
            record.totalCycles = reader.parseNumber();
          } else if (field == "stallCycles") {
            record.stallCycles = reader.parseNumber();
          } else if (field == "makespan") {
            record.makespan = reader.parseNumber();
          } else if (field == "llcMisses") {
            record.llcMisses = reader.parseNumber();
          } else if (field == "coherenceMisses") {
            record.coherenceMisses = reader.parseNumber();
          } else if (field == "writebacks") {
            record.writebacks = reader.parseNumber();
          } else if (field == "rerouted") {
            record.reroutedRequests = reader.parseNumber();
          } else if (field == "faultRetries") {
            record.faultRetries = reader.parseNumber();
          } else if (field == "background") {
            record.backgroundRequests = reader.parseNumber();
          } else if (field == "throttledCycles") {
            record.throttledCycles = reader.parseNumber();
          } else if (field == "crc") {
            hasCrc = parseCrcHex(reader.parseString(), &storedCrc);
            if (reader.ok() && !hasCrc) {
              reader.fail("crc is not 8 hex digits");
            }
          } else {
            reader.fail("unknown run field \"" + field + "\"");
          }
        }
        reader.consume('}');
        if (!reader.ok()) {
          return makeUnexpected(readerError(reader));
        }
        if (version >= 2) {
          if (!hasCrc) {
            return makeUnexpected(
                crcError(recordOffset, "run record is missing its crc"));
          }
          const std::uint32_t computed = crc32(runPayload(record));
          if (computed != storedCrc) {
            return makeUnexpected(crcError(
                recordOffset, "run record crc mismatch (stored " +
                                  crcHex(storedCrc) + ", computed " +
                                  crcHex(computed) + ")"));
          }
        }
        state.runs.push_back(record);
      }
      reader.consume(']');
    } else if (key == "failures") {
      if (!reader.consume('[')) {
        return makeUnexpected(readerError(reader));
      }
      while (reader.ok() && !reader.peek(']')) {
        if (!state.failures.empty() && !reader.consume(',')) {
          return makeUnexpected(readerError(reader));
        }
        reader.skipWs();
        const std::size_t recordOffset = reader.offset();
        RunFailure failure;
        bool hasCrc = false;
        std::uint32_t storedCrc = 0;
        if (!reader.consume('{')) {
          return makeUnexpected(readerError(reader));
        }
        bool innerFirst = true;
        while (reader.ok() && !reader.peek('}')) {
          if (!innerFirst && !reader.consume(',')) {
            return makeUnexpected(readerError(reader));
          }
          innerFirst = false;
          const std::string field = reader.parseString();
          if (!reader.consume(':')) {
            return makeUnexpected(readerError(reader));
          }
          if (field == "cores") {
            failure.cores = reader.parseInt("cores");
          } else if (field == "attempts") {
            failure.attempts = reader.parseInt("attempts");
          } else if (field == "recovered") {
            failure.recovered = reader.parseBool();
          } else if (field == "poolSize") {
            // Absent in pre-parallel checkpoints; RunFailure defaults to 1.
            failure.poolSize = reader.parseInt("poolSize");
          } else if (field == "kind") {
            // Absent in v1 checkpoints; RunFailure defaults to kException.
            const std::string kindText = reader.parseString();
            if (reader.ok() && !parseFailureKind(kindText, &failure.kind)) {
              reader.fail("unknown failure kind \"" + kindText + "\"");
            }
          } else if (field == "signal") {
            // Present only on crash records (format v2, crash-capable
            // builds); absent fields keep their zero defaults.
            failure.signal = reader.parseInt("signal");
          } else if (field == "rlimit") {
            failure.rlimit = reader.parseString();
          } else if (field == "stderrTail") {
            failure.stderrTail = reader.parseString();
          } else if (field == "error") {
            failure.error = reader.parseString();
          } else if (field == "crc") {
            hasCrc = parseCrcHex(reader.parseString(), &storedCrc);
            if (reader.ok() && !hasCrc) {
              reader.fail("crc is not 8 hex digits");
            }
          } else {
            reader.fail("unknown failure field \"" + field + "\"");
          }
        }
        reader.consume('}');
        if (!reader.ok()) {
          return makeUnexpected(readerError(reader));
        }
        if (version >= 2) {
          if (!hasCrc) {
            return makeUnexpected(
                crcError(recordOffset, "failure record is missing its crc"));
          }
          const std::uint32_t computed = crc32(failurePayload(failure));
          if (computed != storedCrc) {
            return makeUnexpected(crcError(
                recordOffset, "failure record crc mismatch (stored " +
                                  crcHex(storedCrc) + ", computed " +
                                  crcHex(computed) + ")"));
          }
        }
        state.failures.push_back(failure);
      }
      reader.consume(']');
    } else {
      reader.fail("unknown checkpoint key \"" + key + "\"");
    }
  }
  reader.consume('}');
  if (reader.ok() && !reader.atEnd()) {
    reader.fail("trailing bytes after the checkpoint object");
  }
  if (!reader.ok()) {
    return makeUnexpected(readerError(reader));
  }
  return state;
}

std::optional<SweepCheckpoint> SweepCheckpoint::parse(
    const std::string& json) {
  Expected<SweepCheckpoint, CheckpointError> result = parseChecked(json);
  if (!result) {
    return std::nullopt;
  }
  return std::move(*result);
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

std::optional<SweepCheckpoint> SweepCheckpoint::load(const std::string& path) {
  Expected<SweepCheckpoint, CheckpointError> result = loadChecked(path);
  if (!result) {
    return std::nullopt;
  }
  return std::move(*result);
}

}  // namespace occm::analysis
