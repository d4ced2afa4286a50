// Property-style corruption suite: seeded random mutations (truncation,
// bit flips, chunk duplication, chunk deletion, byte insertion) over the
// two persisted formats the program reads back — sweep checkpoints and
// serialized fault plans. Every mutated input must produce a typed error
// or a cleanly parsed value; never a crash, an assert, or an escaped
// exception. Checkpoints are held to oracles: every single-bit flip and
// every truncation is a typed error, and a mutant that parses re-encodes
// to exactly its own bytes. A sample of mutants additionally goes through
// the on-disk loadOrQuarantine path to audit the quarantine rename.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/sweep_state.hpp"
#include "common/rng.hpp"
#include "exec/frame_transport.hpp"
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

/// Four records, one of each shape: profiles alone (n = 1, 4), a profile
/// with the exception record of its recovered retry (n = 2), and a crash
/// record alone (n = 3).
SweepCheckpoint sampleCheckpoint() {
  SweepCheckpoint ckpt;
  ckpt.program = "cg.S";
  ckpt.machine = "test-numa-4";
  ckpt.config = 0xC0FFEE42U;
  ckpt.outcomes[1].profile = sampleProfile(1, 1'250'000, 350'000, 1'250'000);
  ckpt.outcomes[2].profile = sampleProfile(2, 1'500'000, 500'000, 760'000);
  ckpt.outcomes[2].failure = RunFailure{2, 2, "synthetic \"quoted\" crash\n",
                                        true, 4, RunFailureKind::kException,
                                        0, "", "", ""};
  ckpt.outcomes[3].failure =
      RunFailure{3, 2, "child terminated by signal 11", false, 4,
                 RunFailureKind::kCrash, 11, "address-space",
                 "occm: injected crash\nSegmentation fault", ""};
  ckpt.outcomes[4].profile = sampleProfile(4, 2'250'000, 910'000, 600'000);
  return ckpt;
}

/// A checkpoint file's frame payloads, in file order.
std::vector<std::string> framesOf(const std::string& file) {
  exec::FrameReassembler reassembler;
  EXPECT_TRUE(reassembler.feed(file));
  EXPECT_EQ(reassembler.buffered(), 0u);
  std::vector<std::string> payloads;
  while (std::optional<std::string> payload = reassembler.next()) {
    payloads.push_back(std::move(*payload));
  }
  return payloads;
}

/// The file of `payloads`, each sealed in its own frame.
std::string sealAll(const std::vector<std::string>& payloads) {
  std::string file;
  for (const std::string& payload : payloads) {
    file += exec::encodeFrame(payload);
  }
  return file;
}

/// File offset of frame `index` of `payloads`.
std::size_t frameOffset(const std::vector<std::string>& payloads,
                        std::size_t index) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < index; ++i) {
    at += exec::kFrameOverhead + payloads[i].size();
  }
  return at;
}

/// A record payload: cores, pool size (0 without a failure), outcome.
std::string recordPayload(int cores, int poolSize,
                          const exec::RunOutcome& outcome) {
  std::string payload;
  exec::wire::putI32(payload, cores);
  exec::wire::putI32(payload, poolSize);
  exec::wire::putOutcome(payload, outcome);
  return payload;
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
  const std::string pristine = sampleCheckpoint().encode();
  ASSERT_TRUE(SweepCheckpoint::parseChecked(pristine).hasValue());
  Rng rng(0x5EED0001);
  int typedErrors = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string mutant = mutate(pristine, rng);
    try {
      const auto result = SweepCheckpoint::parseChecked(mutant);
      if (result.hasValue()) {
        // A mutant that still parses is a checkpoint in its own right: it
        // re-encodes to exactly its own bytes (no silent half-parsed
        // state, no field the encoding drops).
        EXPECT_EQ(result->encode(), mutant) << "mutation " << i;
      } else {
        ++typedErrors;
        EXPECT_FALSE(result.error().message().empty());
      }
    } catch (...) {
      ADD_FAILURE() << "parseChecked threw on mutation " << i;
    }
  }
  // Structural mutations overwhelmingly break the format; if nearly all
  // of them still "parsed", the checker is vacuous.
  EXPECT_GT(typedErrors, 60) << "suspiciously tolerant parser";
}

TEST(CorruptionSuite, CheckpointBitFlipsInValuesAreCaughtByCrc) {
  // Every single-bit flip of the file is a typed error. A flip inside a
  // payload or its CRC trailer fails that frame's checksum; a flip in a
  // magic or length field breaks the framing itself.
  const std::string pristine = sampleCheckpoint().encode();
  const std::vector<std::string> payloads = framesOf(pristine);
  ASSERT_EQ(payloads.size(), 5u);  // header + four records
  std::vector<bool> checksummed(pristine.size(), false);
  for (std::size_t f = 0; f < payloads.size(); ++f) {
    const std::size_t at = frameOffset(payloads, f) + exec::kFrameHeaderSize;
    for (std::size_t b = 0; b < payloads[f].size() + exec::kFrameTrailerSize;
         ++b) {
      checksummed[at + b] = true;
    }
  }
  int crcCaught = 0;
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = pristine;
      mutant[at] = static_cast<char>(static_cast<unsigned char>(mutant[at]) ^
                                     (1U << bit));
      const auto result = SweepCheckpoint::parseChecked(mutant);
      ASSERT_FALSE(result.hasValue()) << "byte " << at << " bit " << bit;
      EXPECT_NE(result.error().kind, CheckpointErrorKind::kIoError);
      EXPECT_NE(result.error().kind, CheckpointErrorKind::kMissing);
      if (checksummed[at]) {
        EXPECT_EQ(result.error().kind, CheckpointErrorKind::kCrcMismatch)
            << "byte " << at << " bit " << bit << ": "
            << result.error().message();
        ++crcCaught;
      }
    }
  }
  EXPECT_GT(crcCaught, 0);
}

TEST(CorruptionSuite, EveryCheckpointCutIsTruncated) {
  // A cut anywhere — mid-frame, or on a frame boundary before the last
  // record the header counts — is a truncation, never a shorter sweep.
  const std::string pristine = sampleCheckpoint().encode();
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    const auto result = SweepCheckpoint::parseChecked(pristine.substr(0, cut));
    ASSERT_FALSE(result.hasValue()) << "cut at byte " << cut;
    EXPECT_EQ(result.error().kind, CheckpointErrorKind::kTruncated)
        << "cut at byte " << cut << ": " << result.error().message();
    EXPECT_LE(result.error().byteOffset, cut);
  }
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
      (std::filesystem::temp_directory_path() / "occm_corrupt_probe.bin")
          .string();
  const std::string pristine = sampleCheckpoint().encode();
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
  // Truncation vs garbage vs version skew vs CRC mismatch vs a record
  // count that disagrees with the file, each with a byte offset a human
  // can act on.
  const std::string pristine = sampleCheckpoint().encode();
  const std::vector<std::string> payloads = framesOf(pristine);
  ASSERT_EQ(payloads.size(), 5u);

  // Cut inside the third frame: named at that frame's start.
  const std::size_t third = frameOffset(payloads, 2);
  const auto truncated =
      SweepCheckpoint::parseChecked(pristine.substr(0, third + 20));
  ASSERT_FALSE(truncated.hasValue());
  EXPECT_EQ(truncated.error().kind, CheckpointErrorKind::kTruncated);
  EXPECT_EQ(truncated.error().byteOffset, third);

  const auto garbage = SweepCheckpoint::parseChecked("][ nonsense");
  ASSERT_FALSE(garbage.hasValue());
  EXPECT_EQ(garbage.error().kind, CheckpointErrorKind::kSyntax);
  EXPECT_EQ(garbage.error().byteOffset, 0u);
  EXPECT_NE(garbage.error().detail.find("magic"), std::string::npos);

  // A sealed header of another version: skew, named at the version.
  std::vector<std::string> skewed = payloads;
  skewed[0][0] = 9;
  const auto skew = SweepCheckpoint::parseChecked(sealAll(skewed));
  ASSERT_FALSE(skew.hasValue());
  EXPECT_EQ(skew.error().kind, CheckpointErrorKind::kVersionSkew);
  EXPECT_EQ(skew.error().byteOffset, exec::kFrameHeaderSize);
  EXPECT_NE(skew.error().detail.find("version 9"), std::string::npos);

  // A flipped payload byte: the frame's CRC trailer names it.
  std::string flipped = pristine;
  const std::size_t second = frameOffset(payloads, 1);
  flipped[second + exec::kFrameHeaderSize] ^= 0x01;
  const auto crc = SweepCheckpoint::parseChecked(flipped);
  ASSERT_FALSE(crc.hasValue());
  EXPECT_EQ(crc.error().kind, CheckpointErrorKind::kCrcMismatch);
  EXPECT_EQ(crc.error().byteOffset,
            second + exec::kFrameHeaderSize + payloads[1].size());
  EXPECT_NE(crc.error().detail.find("crc mismatch"), std::string::npos);

  // The header counts every record: one fewer frame is a truncation even
  // on a frame boundary, one more is a syntax error at the extra frame.
  const std::vector<std::string> fewer(payloads.begin(), payloads.end() - 1);
  const auto shortFile = SweepCheckpoint::parseChecked(sealAll(fewer));
  ASSERT_FALSE(shortFile.hasValue());
  EXPECT_EQ(shortFile.error().kind, CheckpointErrorKind::kTruncated);
  EXPECT_EQ(shortFile.error().byteOffset, frameOffset(payloads, 4));
  EXPECT_NE(shortFile.error().detail.find("3 of 4 records"),
            std::string::npos)
      << shortFile.error().detail;

  std::vector<std::string> more = payloads;
  more.push_back(payloads[4]);
  const auto longFile = SweepCheckpoint::parseChecked(sealAll(more));
  ASSERT_FALSE(longFile.hasValue());
  EXPECT_EQ(longFile.error().kind, CheckpointErrorKind::kSyntax);
  EXPECT_EQ(longFile.error().byteOffset, pristine.size());

  // Records run in ascending core-count order, each count once.
  std::vector<std::string> swapped = payloads;
  std::swap(swapped[2], swapped[3]);
  const auto order = SweepCheckpoint::parseChecked(sealAll(swapped));
  ASSERT_FALSE(order.hasValue());
  EXPECT_EQ(order.error().kind, CheckpointErrorKind::kSyntax);
  EXPECT_EQ(order.error().byteOffset, frameOffset(swapped, 3));
  EXPECT_NE(order.error().detail.find("follows the one for 3"),
            std::string::npos)
      << order.error().detail;
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
  // A record whose frame is sound still has to decode exactly: the
  // outcome consumes every byte, its profile names the record's core
  // count, and a pool size appears only with a failure. A deviation is a
  // syntax error inside that record's frame, never a silently different
  // profile.
  const SweepCheckpoint sample = sampleCheckpoint();
  const std::string pristine = sample.encode();
  const std::vector<std::string> payloads = framesOf(pristine);
  const std::size_t recordAt = frameOffset(payloads, 1);
  const std::size_t recordEnd = frameOffset(payloads, 2);
  const exec::RunOutcome& first = sample.outcomes.at(1);

  const auto expectRecordError = [&](const std::string& payload,
                                     const std::string& detail) {
    std::vector<std::string> edited = payloads;
    edited[1] = payload;
    const auto result = SweepCheckpoint::parseChecked(sealAll(edited));
    ASSERT_FALSE(result.hasValue()) << detail;
    EXPECT_EQ(result.error().kind, CheckpointErrorKind::kSyntax)
        << result.error().message();
    EXPECT_GE(result.error().byteOffset, recordAt) << result.error().message();
    EXPECT_LT(result.error().byteOffset, recordEnd)
        << result.error().message();
    EXPECT_NE(result.error().detail.find(detail), std::string::npos)
        << result.error().detail;
  };

  expectRecordError(payloads[1] + '\0', "trailing bytes");
  expectRecordError(payloads[1].substr(0, payloads[1].size() - 8),
                    "unexpected end of input");
  expectRecordError(recordPayload(3, 0, first), "holds a profile of 1");
  expectRecordError(recordPayload(1, 4, first), "pool size but no failure");

  // The untouched bytes decode to the very profile that was written, and
  // a failure takes its cores and pool size from its record.
  const auto back = SweepCheckpoint::parseChecked(pristine);
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_NE(back->find(2), nullptr);
  std::string again;
  exec::wire::putProfile(again, *back->find(2));
  std::string expected;
  exec::wire::putProfile(expected, *sample.find(2));
  EXPECT_EQ(again, expected);
  EXPECT_EQ(back->find(3), nullptr);
  ASSERT_TRUE(back->outcomes.at(2).failure.has_value());
  EXPECT_EQ(back->outcomes.at(2).failure->cores, 2);
  EXPECT_EQ(back->outcomes.at(2).failure->poolSize, 4);
}

TEST(CorruptionSuite, LegacyCheckpointsLoadAsVersionSkewAndQuarantine) {
  // A v1 file (no version header, per-field runs, no CRCs), a v2 file
  // (version header, per-field runs with CRCs) and a v3 file (hex-encoded
  // wire profiles and JSON failure records, as the v3 writer left it) are
  // all JSON: caches of work this build no longer reads. Each is version
  // skew at byte 0, quarantined.
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
  const std::string v3 =
      "{\n"
      "  \"version\": 3,\n"
      "  \"program\": \"cg.S\",\n"
      "  \"machine\": \"test-numa-4\",\n"
      "  \"config\": \"0badf00d\",\n"
      "  \"runs\": [\n"
      "    {\"cores\": 1, \"profile\": \""
      "0400000063672e530b000000746573742d6e756d612d34040000000100000064"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000"
      "\", \"crc\": \"da841c29\"}\n"
      "  ],\n"
      "  \"failures\": [\n"
      "    {\"cores\": 2, \"attempts\": 3, \"recovered\": false, "
      "\"poolSize\": 1, \"kind\": \"crash\", \"signal\": 6, \"rlimit\": \"\", "
      "\"stderrTail\": \"abort\", "
      "\"error\": \"child terminated by signal 6\", \"crc\": \"a3431023\"}\n"
      "  ]\n"
      "}\n";
  const std::string path =
      (std::filesystem::temp_directory_path() / "occm_legacy_probe.bin")
          .string();
  for (const std::string& legacy : {v1, v2, v3, std::string("{}")}) {
    const auto parsed = SweepCheckpoint::parseChecked(legacy);
    ASSERT_FALSE(parsed.hasValue()) << legacy;
    EXPECT_EQ(parsed.error().kind, CheckpointErrorKind::kVersionSkew)
        << parsed.error().message();
    EXPECT_EQ(parsed.error().byteOffset, 0u);
    EXPECT_NE(parsed.error().detail.find("reads version 4"),
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
  std::filesystem::remove(path + ".corrupt");
}

TEST(CorruptionSuite, CheckpointRoundTripsAllFailureKinds) {
  // The record carries a failure through the outcome codec, so every run
  // kind survives with its crash forensics, and cores and pool size come
  // back from the record.
  SweepCheckpoint ckpt = sampleCheckpoint();
  ckpt.outcomes[5].failure = RunFailure{5, 1, "over budget", false, 2,
                                        RunFailureKind::kTimeout, 0, "", "",
                                        ""};
  ckpt.outcomes[6].failure = RunFailure{6, 1, "ctrl-c", false, 2,
                                        RunFailureKind::kCancelled, 9, "", "",
                                        ""};
  const std::string file = ckpt.encode();
  const auto back = SweepCheckpoint::parseChecked(file);
  ASSERT_TRUE(back.hasValue()) << back.error().message();
  ASSERT_EQ(back->outcomes.size(), 6u);
  const auto failureAt = [&](int cores) {
    EXPECT_TRUE(back->outcomes.at(cores).failure.has_value()) << cores;
    return back->outcomes.at(cores).failure.value_or(RunFailure{});
  };
  EXPECT_EQ(failureAt(2).kind, RunFailureKind::kException);
  EXPECT_TRUE(failureAt(2).recovered);
  EXPECT_EQ(failureAt(2).error, "synthetic \"quoted\" crash\n");
  EXPECT_EQ(failureAt(3).kind, RunFailureKind::kCrash);
  EXPECT_EQ(failureAt(3).attempts, 2);
  EXPECT_EQ(failureAt(3).signal, 11);
  EXPECT_EQ(failureAt(3).rlimit, "address-space");
  EXPECT_EQ(failureAt(3).stderrTail,
            "occm: injected crash\nSegmentation fault");
  EXPECT_EQ(failureAt(5).kind, RunFailureKind::kTimeout);
  EXPECT_EQ(failureAt(6).kind, RunFailureKind::kCancelled);
  EXPECT_EQ(failureAt(6).signal, 9);
  for (const auto& [cores, outcome] : back->outcomes) {
    if (outcome.failure.has_value()) {
      EXPECT_EQ(outcome.failure->cores, cores);
      EXPECT_EQ(outcome.failure->poolSize, cores < 5 ? 4 : 2);
    }
  }
  EXPECT_EQ(back->encode(), file);
}

}  // namespace
}  // namespace occm::analysis
