// Property-style corruption suite: seeded random mutations (truncation,
// bit flips, chunk duplication, chunk deletion, byte insertion) over the
// two persisted formats the program reads back — sweep checkpoints and
// serialized fault plans. Every mutated input must produce a typed error
// or a cleanly parsed value; never a crash, an assert, or an escaped
// exception. A sample of mutants additionally goes through the on-disk
// loadOrQuarantine path to audit the quarantine rename.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/sweep_state.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "exec/wire_codec.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_plan_io.hpp"

namespace occm::analysis {
namespace {

/// One seeded structural mutation of `text`.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  switch (rng.next() % 5) {
    case 0: {  // truncate at a random byte (mid-write kill)
      out.resize(rng.next() % (out.size() + 1));
      break;
    }
    case 1: {  // flip one bit (at-rest corruption)
      if (!out.empty()) {
        const std::size_t at = rng.next() % out.size();
        const unsigned char bit = static_cast<unsigned char>(1U << (rng.next() % 8));
        out[at] = static_cast<char>(static_cast<unsigned char>(out[at]) ^ bit);
      }
      break;
    }
    case 2: {  // duplicate a random chunk (botched append / double write)
      if (!out.empty()) {
        const std::size_t from = rng.next() % out.size();
        const std::size_t len = 1 + rng.next() % 64;
        out.insert(rng.next() % (out.size() + 1),
                   out.substr(from, std::min(len, out.size() - from)));
      }
      break;
    }
    case 3: {  // delete a random chunk
      if (!out.empty()) {
        const std::size_t from = rng.next() % out.size();
        const std::size_t len = 1 + rng.next() % 32;
        out.erase(from, std::min(len, out.size() - from));
      }
      break;
    }
    default: {  // insert a random byte
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                   rng.next() % (out.size() + 1)),
                 static_cast<char>(rng.next() & 0xFF));
      break;
    }
  }
  return out;
}

perf::RunProfile sampleProfile(int cores, Cycles total, Cycles stall,
                               Cycles makespan) {
  perf::RunProfile profile;
  profile.program = "cg.S";
  profile.machine = "test-numa-4";
  profile.threads = 4;
  profile.activeCores = cores;
  profile.counters.totalCycles = total;
  profile.counters.stallCycles = stall;
  profile.counters.instructions = total / 2;
  profile.makespan = makespan;
  profile.perCore.resize(4);
  profile.perCore[0].totalCycles = total;
  profile.controllerStats.resize(2);
  profile.controllerStats[1].requests = 4321;
  return profile;
}

SweepCheckpoint sampleCheckpoint() {
  SweepCheckpoint ckpt;
  ckpt.program = "cg.S";
  ckpt.machine = "test-numa-4";
  ckpt.config = 0xC0FFEE42U;
  ckpt.runs.push_back(sampleProfile(1, 1'250'000, 350'000, 1'250'000));
  ckpt.runs.push_back(sampleProfile(2, 1'500'000, 500'000, 760'000));
  ckpt.runs.push_back(sampleProfile(4, 2'250'000, 910'000, 600'000));
  ckpt.failures.push_back({3, 2, "synthetic \"quoted\" crash\n", true, 4,
                           RunFailureKind::kException, 0, "", "", ""});
  return ckpt;
}

std::string sampleFaultPlanJson() {
  fault::FaultPlan plan;
  plan.controllerOutage(1, 20'000, 60'000)
      .controllerDegrade(0, 10'000, 30'000, 2.5)
      .coreThrottle(2, 5'000, 15'000, 3.0)
      .eccSpike(0, 70'000, 90'000, 0.05, 200)
      .backgroundTraffic(1, 40'000, 80'000, 512);
  return fault::toJson(plan);
}

TEST(CorruptionSuite, CheckpointMutationsNeverCrashOrSilentlyMisparse) {
  const std::string pristine = sampleCheckpoint().toJson();
  ASSERT_TRUE(SweepCheckpoint::parseChecked(pristine).hasValue());
  Rng rng(0x5EED0001);
  int typedErrors = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string mutant = mutate(pristine, rng);
    try {
      const auto result = SweepCheckpoint::parseChecked(mutant);
      if (result.hasValue()) {
        // A mutant that still parses must be internally consistent: its
        // re-serialization round-trips (no silent half-parsed state).
        const auto again = SweepCheckpoint::parseChecked(result->toJson());
        EXPECT_TRUE(again.hasValue()) << "mutation " << i;
      } else {
        ++typedErrors;
        EXPECT_FALSE(result.error().message().empty());
      }
    } catch (...) {
      ADD_FAILURE() << "parseChecked threw on mutation " << i << ": "
                    << mutant.substr(0, 120);
    }
  }
  // Structural mutations overwhelmingly break the format; if nearly all
  // of them still "parsed", the checker is vacuous.
  EXPECT_GT(typedErrors, 60) << "suspiciously tolerant parser";
}

TEST(CorruptionSuite, CheckpointBitFlipsInValuesAreCaughtByCrc) {
  // Target digits specifically: flip one numeric character inside a run
  // record. The JSON stays syntactically valid, so only the per-record
  // CRC (or, for the core count, its cross-check against the profile)
  // can catch it.
  const std::string pristine = sampleCheckpoint().toJson();
  const std::size_t runsAt = pristine.find("\"runs\"");
  ASSERT_NE(runsAt, std::string::npos);
  Rng rng(0x5EED0002);
  int caught = 0;
  int attempts = 0;
  for (std::size_t at = runsAt; at < pristine.size() && attempts < 40; ++at) {
    const char c = pristine[at];
    if (c < '0' || c > '9') {
      continue;
    }
    ++attempts;
    std::string mutant = pristine;
    mutant[at] = c == '9' ? '0' : static_cast<char>(c + 1);
    const auto result = SweepCheckpoint::parseChecked(mutant);
    if (!result.hasValue()) {
      ++caught;
      EXPECT_NE(result.error().kind, CheckpointErrorKind::kIoError);
    }
  }
  // Every single-digit change lands in a core count, a profile byte or a
  // CRC field: the first no longer names the profile's core count, the
  // other two fail the record's checksum. Nothing may parse as a
  // silently different sweep.
  EXPECT_EQ(caught, attempts);
}

TEST(CorruptionSuite, FaultPlanMutationsYieldTypedErrorsOrValidPlans) {
  const std::string pristine = sampleFaultPlanJson();
  const auto roundTrip = fault::planFromJson(pristine);
  ASSERT_TRUE(roundTrip.hasValue()) << roundTrip.error().message();
  ASSERT_EQ(fault::toJson(*roundTrip), pristine);
  Rng rng(0x5EED0004);
  for (int i = 0; i < 100; ++i) {
    const std::string mutant = mutate(pristine, rng);
    try {
      const auto result = fault::planFromJson(mutant);
      if (!result.hasValue()) {
        EXPECT_FALSE(result.error().message().empty());
      } else {
        // A surviving plan must satisfy the builder contracts (the loader
        // replays events through them), so every window is well-formed.
        for (const fault::FaultEvent& e : result->events()) {
          EXPECT_LT(e.start, e.end);
        }
      }
    } catch (...) {
      ADD_FAILURE() << "planFromJson threw on mutation " << i;
    }
  }
}

TEST(CorruptionSuite, OnDiskMutantsQuarantineAndFreshStart) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "occm_corrupt_probe.json")
          .string();
  const std::string pristine = sampleCheckpoint().toJson();
  Rng rng(0x5EED0005);
  for (int i = 0; i < 24; ++i) {
    const std::string mutant = mutate(pristine, rng);
    std::filesystem::remove(path + ".corrupt");
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << mutant;
    }
    const auto result = SweepCheckpoint::loadOrQuarantine(path);
    if (result.hasValue()) {
      // Still-parsable mutant: the file must be left in place untouched.
      EXPECT_TRUE(std::filesystem::exists(path));
      EXPECT_FALSE(std::filesystem::exists(path + ".corrupt"));
    } else {
      EXPECT_NE(result.error().kind, CheckpointErrorKind::kMissing);
      EXPECT_EQ(result.error().quarantinedTo, path + ".corrupt");
      EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
      EXPECT_FALSE(std::filesystem::exists(path));
      EXPECT_NE(result.error().message().find("quarantined"),
                std::string::npos);
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".corrupt");

  // Missing files are a fresh start, not corruption: no quarantine.
  const auto missing = SweepCheckpoint::loadOrQuarantine(path);
  ASSERT_FALSE(missing.hasValue());
  EXPECT_EQ(missing.error().kind, CheckpointErrorKind::kMissing);
  EXPECT_TRUE(missing.error().quarantinedTo.empty());
}

TEST(CorruptionSuite, CheckpointTypedErrorsNameKindAndOffset) {
  // Truncation vs garbage vs version skew vs CRC mismatch, each with a
  // byte offset a human can act on.
  const std::string pristine = sampleCheckpoint().toJson();

  const auto truncated =
      SweepCheckpoint::parseChecked(pristine.substr(0, pristine.size() / 2));
  ASSERT_FALSE(truncated.hasValue());
  EXPECT_EQ(truncated.error().kind, CheckpointErrorKind::kTruncated);

  const auto garbage = SweepCheckpoint::parseChecked("][ nonsense");
  ASSERT_FALSE(garbage.hasValue());
  EXPECT_EQ(garbage.error().kind, CheckpointErrorKind::kSyntax);
  EXPECT_EQ(garbage.error().byteOffset, 0u);

  std::string skewed = pristine;
  const std::size_t vAt = skewed.find("\"version\": 3");
  ASSERT_NE(vAt, std::string::npos);
  skewed.replace(vAt, 12, "\"version\": 9");
  const auto skew = SweepCheckpoint::parseChecked(skewed);
  ASSERT_FALSE(skew.hasValue());
  EXPECT_EQ(skew.error().kind, CheckpointErrorKind::kVersionSkew);
  EXPECT_NE(skew.error().detail.find("version 9"), std::string::npos);

  std::string flipped = pristine;
  const std::size_t hexAt = flipped.find("\"profile\": \"") + 12;
  ASSERT_LT(hexAt, flipped.size());
  flipped[hexAt] = flipped[hexAt] == '0' ? '1' : '0';
  const auto crc = SweepCheckpoint::parseChecked(flipped);
  ASSERT_FALSE(crc.hasValue());
  EXPECT_EQ(crc.error().kind, CheckpointErrorKind::kCrcMismatch);
  EXPECT_GT(crc.error().byteOffset, 0u);
  EXPECT_NE(crc.error().detail.find("crc mismatch"), std::string::npos);

  // Integer fields must hold integers that fit an int: a fraction or an
  // out-of-range value is a syntax error naming the field, never a
  // truncated (or undefined) conversion.
  const auto expectSyntax = [](const std::string& json,
                               const std::string& field) {
    const auto result = SweepCheckpoint::parseChecked(json);
    ASSERT_FALSE(result.hasValue()) << json;
    EXPECT_EQ(result.error().kind, CheckpointErrorKind::kSyntax) << json;
    EXPECT_NE(result.error().detail.find(field), std::string::npos)
        << result.error().detail;
  };
  expectSyntax(
      "{\"version\": 3, \"runs\": [{\"cores\": 1e10, \"profile\": \"\", "
      "\"crc\": \"00000000\"}]}",
      "cores");
  for (const char* version : {"1.5", "1e300"}) {
    std::string bad = pristine;
    bad.replace(vAt, 12, std::string("\"version\": ") + version);
    expectSyntax(bad, "version");
  }
  std::string fractional = pristine;
  const std::size_t attemptsAt = fractional.find("\"attempts\": 2,");
  ASSERT_NE(attemptsAt, std::string::npos);
  fractional.replace(attemptsAt, 14, "\"attempts\": 2.5,");
  expectSyntax(fractional, "attempts");
}

TEST(CorruptionSuite, FaultPlanVersionMustBeAnInteger) {
  // The plan's other int field, an event's target, goes through the same
  // checked read.
  const std::string pristine = sampleFaultPlanJson();
  for (const auto& [field, from, to] :
       {std::tuple<std::string, std::string, std::string>{
            "version", "\"version\": 1,", "\"version\": 1.9,"},
        {"target", "\"target\": 1,", "\"target\": 1.5,"}}) {
    std::string json = pristine;
    const std::size_t at = json.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    json.replace(at, from.size(), to);
    const auto result = fault::planFromJson(json);
    ASSERT_FALSE(result.hasValue()) << json;
    EXPECT_NE(result.error().detail.find(field), std::string::npos)
        << result.error().detail;
  }
}

TEST(CorruptionSuite, CheckpointRunProfileMustDecodeExactly) {
  // Each run's profile passes three gates — lowercase even-length hex,
  // its CRC, a wire decode that consumes every byte and names the
  // record's core count — and a failure at any gate points at the run
  // record, never a silently different profile.
  const std::string pristine = sampleCheckpoint().toJson();
  const std::size_t recordAt = pristine.find("{\"cores\": 1,");
  ASSERT_NE(recordAt, std::string::npos);
  const std::size_t hexAt = pristine.find("\"profile\": \"", recordAt) + 12;
  const std::size_t hexEnd = pristine.find('"', hexAt);
  const std::string hex = pristine.substr(hexAt, hexEnd - hexAt);
  const std::size_t crcAt = pristine.find("\"crc\": \"", hexEnd) + 8;

  // Replaces the first run's profile hex and, when given, its CRC.
  const auto withRun = [&](const std::string& newHex,
                           const std::string& newCrc) {
    std::string json = pristine;
    if (!newCrc.empty()) {
      json.replace(crcAt, 8, newCrc);
    }
    json.replace(hexAt, hex.size(), newHex);
    return json;
  };
  // Hex of `bytes` with a CRC the loader accepts.
  const auto sealed = [&](const std::string& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string outHex;
    for (const char ch : bytes) {
      outHex += kDigits[static_cast<unsigned char>(ch) >> 4];
      outHex += kDigits[static_cast<unsigned char>(ch) & 0xFU];
    }
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", crc32(bytes));
    return withRun(outHex, crc);
  };
  const auto expectRecordError = [&](const std::string& json,
                                     CheckpointErrorKind kind,
                                     const std::string& detail) {
    const auto result = SweepCheckpoint::parseChecked(json);
    ASSERT_FALSE(result.hasValue()) << detail;
    EXPECT_EQ(result.error().kind, kind) << result.error().message();
    EXPECT_EQ(result.error().byteOffset, recordAt) << result.error().message();
    EXPECT_NE(result.error().detail.find(detail), std::string::npos)
        << result.error().detail;
  };

  std::string upper = hex;
  for (char& ch : upper) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  expectRecordError(withRun(upper, ""), CheckpointErrorKind::kSyntax, "hex");
  expectRecordError(withRun(hex.substr(1), ""), CheckpointErrorKind::kSyntax,
                    "hex");

  std::string bytes;
  exec::wire::putProfile(bytes, sampleCheckpoint().runs[0]);
  expectRecordError(sealed(bytes + '\0'), CheckpointErrorKind::kSyntax,
                    "trailing bytes");
  expectRecordError(sealed(bytes.substr(0, bytes.size() - 8)),
                    CheckpointErrorKind::kSyntax, "unexpected end of input");

  std::string moved = pristine;
  moved.replace(recordAt, 12, "{\"cores\": 3,");
  expectRecordError(moved, CheckpointErrorKind::kSyntax,
                    "holds a profile of 1");

  // The untouched bytes decode to the very profile that was written.
  const auto back = SweepCheckpoint::parseChecked(pristine);
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_NE(back->find(2), nullptr);
  std::string again;
  exec::wire::putProfile(again, *back->find(2));
  std::string expected;
  exec::wire::putProfile(expected, sampleCheckpoint().runs[1]);
  EXPECT_EQ(again, expected);
}

TEST(CorruptionSuite, LegacyCheckpointsLoadAsVersionSkewAndQuarantine) {
  // A v1 file (no version header, per-field runs, no CRCs) and a v2 file
  // (version header, per-field runs with CRCs) are both caches of work
  // this build cannot reproduce bit for bit: version skew, quarantined.
  const std::string v1 =
      "{\n"
      "  \"program\": \"cg.S\",\n"
      "  \"machine\": \"old-box\",\n"
      "  \"seed\": \"7\",\n"
      "  \"threads\": 4,\n"
      "  \"runs\": [\n"
      "    {\"cores\": 1, \"totalCycles\": 100, \"stallCycles\": 25, "
      "\"makespan\": 100}\n"
      "  ],\n"
      "  \"failures\": []\n"
      "}\n";
  const std::string v2 =
      "{\n"
      "  \"version\": 2,\n"
      "  \"program\": \"cg.S\",\n"
      "  \"machine\": \"old-box\",\n"
      "  \"seed\": \"7\",\n"
      "  \"threads\": 4,\n"
      "  \"runs\": [\n"
      "    {\"cores\": 1, \"totalCycles\": 100, \"stallCycles\": 25, "
      "\"makespan\": 100, \"crc\": \"0123abcd\"}\n"
      "  ],\n"
      "  \"failures\": []\n"
      "}\n";
  const std::string path =
      (std::filesystem::temp_directory_path() / "occm_legacy_probe.json")
          .string();
  for (const std::string& legacy : {v1, v2, std::string("{}")}) {
    const auto parsed = SweepCheckpoint::parseChecked(legacy);
    ASSERT_FALSE(parsed.hasValue()) << legacy;
    EXPECT_EQ(parsed.error().kind, CheckpointErrorKind::kVersionSkew)
        << parsed.error().message();
    EXPECT_NE(parsed.error().detail.find("reads version 3"),
              std::string::npos)
        << parsed.error().detail;

    std::filesystem::remove(path + ".corrupt");
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << legacy;
    }
    const auto loaded = SweepCheckpoint::loadOrQuarantine(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, CheckpointErrorKind::kVersionSkew);
    EXPECT_EQ(loaded.error().quarantinedTo, path + ".corrupt");
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  // v1 is named at its first key, v2 at its version number.
  EXPECT_EQ(SweepCheckpoint::parseChecked(v1).error().byteOffset,
            v1.find("\"program\""));
  EXPECT_EQ(SweepCheckpoint::parseChecked(v2).error().byteOffset,
            v2.find("2,"));
  std::filesystem::remove(path + ".corrupt");
}

TEST(CorruptionSuite, CheckpointRoundTripsAllFailureKinds) {
  SweepCheckpoint ckpt = sampleCheckpoint();
  ckpt.failures.push_back({5, 1, "over budget", false, 2,
                           RunFailureKind::kTimeout, 0, "", "", ""});
  ckpt.failures.push_back({6, 1, "ctrl-c", false, 2,
                           RunFailureKind::kCancelled, 0, "", "", ""});
  ckpt.failures.push_back({7, 2, "child terminated by signal 11", false, 2,
                           RunFailureKind::kCrash, 11, "address-space",
                           "occm: injected crash\nSegmentation fault", ""});
  const auto back = SweepCheckpoint::parseChecked(ckpt.toJson());
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_EQ(back->failures.size(), 4u);
  EXPECT_EQ(back->failures[0].kind, RunFailureKind::kException);
  EXPECT_EQ(back->failures[1].kind, RunFailureKind::kTimeout);
  EXPECT_EQ(back->failures[2].kind, RunFailureKind::kCancelled);
  EXPECT_EQ(back->failures[3].kind, RunFailureKind::kCrash);
  EXPECT_EQ(back->failures[3].signal, 11);
  EXPECT_EQ(back->failures[3].rlimit, "address-space");
  EXPECT_EQ(back->failures[3].stderrTail,
            "occm: injected crash\nSegmentation fault");
  EXPECT_EQ(back->toJson(), ckpt.toJson());
}

}  // namespace
}  // namespace occm::analysis
