#pragma once

// Argument checks shared by the example CLIs and the bench drivers. A
// bad workload, core count, count or duration is rejected here with one
// "error:" line on stderr and exit status 1, before any simulation starts
// — the library would otherwise abort on the contract violation, and
// atoi/strtol/atof would silently read garbage as 0, "1e9" as 1 or
// " +2" as 2. Integers follow occm::wholeInteger (common/whole_integer),
// the rule the OCCM_SWEEP_WORKERS variable follows too. nonNegativeArg
// and efficiencyArg only parse, for CLIs that reject with their own usage
// and exit status.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "common/whole_integer.hpp"
#include "core/occm.hpp"

namespace occm::examples {

[[noreturn]] inline void rejectArg(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  std::exit(1);
}

/// "EP", "IS", "FT", "CG", "SP" or "x264".
inline workloads::Program programArg(const std::string& name) {
  const auto program = workloads::parseProgram(name);
  if (!program.has_value()) {
    rejectArg("unknown program '" + name + "' (EP|IS|FT|CG|SP|x264)");
  }
  return *program;
}

/// A class valid for `program`: S|W|A|B|C for the NPB programs,
/// simsmall|simmedium|simlarge|native for x264.
inline workloads::ProblemClass classArg(workloads::Program program,
                                        const std::string& name) {
  const auto cls = workloads::parseProblemClass(name);
  if (!cls.has_value() || !workloads::classValidFor(program, *cls)) {
    rejectArg("no problem class '" + name + "' for " +
              workloads::programName(program));
  }
  return *cls;
}

/// "CG.C", "x264.native", ... (the paper's notation).
inline workloads::WorkloadSpec workloadArg(const std::string& arg) {
  const std::size_t dot = arg.find('.');
  if (dot == std::string::npos) {
    rejectArg("expected program.class, got '" + arg + "'");
  }
  workloads::WorkloadSpec spec;
  spec.program = programArg(arg.substr(0, dot));
  spec.problemClass = classArg(spec.program, arg.substr(dot + 1));
  return spec;
}

/// An active-core count: decimal digits only, in 1..logicalCores().
inline int coresArg(const std::string& text,
                    const topology::MachineSpec& machine) {
  int value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || value < 1 ||
      value > machine.logicalCores()) {
    rejectArg("bad core count '" + text + "' (want 1.." +
              std::to_string(machine.logicalCores()) + " on " +
              machine.name + ")");
  }
  return value;
}

/// `--flag=N` by the wholeInteger rule; exits 1 on a bad value.
template <typename Int>
Int integerArg(const std::string& flag, const std::string& text,
               Int minValue = 0,
               Int maxValue = std::numeric_limits<Int>::max()) {
  const std::optional<Int> value = wholeInteger(text, minValue, maxValue);
  if (!value.has_value()) {
    rejectArg("bad " + flag + " '" + text + "' (want an integer in " +
              std::to_string(minValue) + ".." + std::to_string(maxValue) +
              ")");
  }
  return *value;
}

/// `--mem-limit=MB` as bytes. The MiB count is bounded so the shift to
/// bytes cannot wrap to 0, which RLIMIT_AS would read as "no limit".
inline std::uint64_t memLimitArg(const std::string& text) {
  return integerArg<std::uint64_t>(
             "--mem-limit", text, 0,
             std::numeric_limits<std::uint64_t>::max() >> 20)
         << 20;
}

/// The whole text as a finite number >= 0, or nullopt (empty text,
/// trailing junk, a negative value, nan or inf).
inline std::optional<double> nonNegativeArg(const std::string& text) {
  double value = 0.0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value) ||
      value < 0.0) {
    return std::nullopt;
  }
  return value;
}

/// The whole text as a finite number in (0, 1], or nullopt (empty text,
/// trailing junk, a value outside the range, nan or inf).
inline std::optional<double> efficiencyArg(const std::string& text) {
  const std::optional<double> value = nonNegativeArg(text);
  if (!value.has_value() || *value == 0.0 || *value > 1.0) {
    return std::nullopt;
  }
  return value;
}

/// A duration in seconds for `--flag=SECONDS` (0 = no limit).
inline double secondsArg(const std::string& flag, const std::string& text) {
  const std::optional<double> value = nonNegativeArg(text);
  if (!value.has_value()) {
    rejectArg("bad " + flag + " '" + text +
              "' (want a finite number of seconds >= 0)");
  }
  return *value;
}

}  // namespace occm::examples
