// Regenerates the committed chaos seed corpora for fuzz_wire_message and
// fuzz_serve_message (scripts/gen_chaos_corpus.sh). Each file is a chaos
// interleaving: a stream of canonical protocol frames pushed through the
// same seeded fault schedule the chaos transport replays — drops,
// duplicates, adjacent reorders, bit flips, truncations — so the fuzzers
// start from the exact wire shapes the chaos drills produce instead of
// rediscovering them from random bytes. It also writes the seed corpus
// of fuzz_ipc_frame: the three outcome payloads an isolated child sends
// (a profile, an exception, a timeout), intact.
//
//   gen_chaos_corpus [corpus-root]   (default: fuzz/corpus)
//
// Deterministic by construction: every byte is a pure function of the
// seed through planFromSeed / faultFires / chaosMix, so regenerating
// produces identical files and the corpus diffs clean.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "exec/chaos/chaos_transport.hpp"
#include "exec/chaos/net_fault_plan.hpp"
#include "exec/distributed/protocol.hpp"
#include "exec/ipc.hpp"
#include "exec/wire_codec.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace occm;
using namespace occm::exec::chaos;

/// Canonical fleet-protocol payloads: one of each message kind that
/// carries interesting structure.
std::vector<std::string> wirePayloads() {
  using namespace occm::exec::dist;
  std::vector<std::string> payloads;

  WireMessage hello;
  hello.kind = WireMessage::Kind::kHello;
  hello.workerId = "chaos-worker";
  payloads.push_back(encodeMessage(hello));

  WireMessage welcome;
  welcome.kind = WireMessage::Kind::kWelcome;
  payloads.push_back(encodeMessage(welcome));

  WireMessage assign;
  assign.kind = WireMessage::Kind::kAssign;
  assign.job.taskId = 3;
  assign.job.cores = 2;
  assign.job.maxAttempts = 2;
  assign.job.program = "CG";
  assign.job.problemClass = "S";
  assign.job.threads = 4;
  assign.job.workloadSeed = 2011;
  payloads.push_back(encodeMessage(assign));

  WireMessage result;
  result.kind = WireMessage::Kind::kResult;
  result.result.taskId = 3;
  result.result.outcome.failure.emplace().error = "chaos ate my homework";
  payloads.push_back(encodeMessage(result));

  WireMessage ping;
  ping.kind = WireMessage::Kind::kPing;
  ping.pingId = 17;
  payloads.push_back(encodeMessage(ping));

  WireMessage shutdown;
  shutdown.kind = WireMessage::Kind::kShutdown;
  shutdown.reason = "drain";
  payloads.push_back(encodeMessage(shutdown));

  return payloads;
}

/// The isolation pipe's payloads, by file name: one outcome of each kind
/// a child sends.
std::vector<std::pair<std::string, std::string>> ipcPayloads() {
  std::vector<std::pair<std::string, std::string>> payloads;
  const auto add = [&payloads](const char* name,
                               const exec::RunOutcome& outcome) {
    std::string payload;
    exec::wire::putOutcome(payload, outcome);
    payloads.emplace_back(name, std::move(payload));
  };

  exec::RunOutcome profile;
  perf::RunProfile& run = profile.profile.emplace();
  run.program = "CG.S";
  run.machine = "test-numa-4";
  run.threads = 4;
  run.activeCores = 2;
  run.counters = {1'000, 400, 2'500, 60};
  run.perCore = {{500, 200, 1'250, 30}, {500, 200, 1'250, 30}};
  run.controllerStats.resize(1);
  run.controllerStats[0].requests = 60;
  run.channelsPerController = 2;
  run.missWindows = {3, 0, 5};
  run.faultEpochs.push_back({"ecc-spike", 0, 100, 200, 0.05});
  add("profile.bin", profile);

  exec::RunOutcome exception;
  exception.failure.emplace().error = "workload threw";
  add("exception.bin", exception);

  exec::RunOutcome timeout;
  exec::RunFailure& budget = timeout.failure.emplace();
  budget.kind = exec::RunFailureKind::kTimeout;
  budget.error = "run exceeded its cycle budget";
  add("timeout.bin", timeout);

  return payloads;
}

/// Canonical serve-protocol payloads (request and response shapes).
std::vector<std::string> servePayloads() {
  using namespace occm::serve;
  std::vector<std::string> payloads;

  ServeMessage request;
  request.kind = ServeMessage::Kind::kRequest;
  request.request.requestId = 1;
  request.request.program = "EP";
  request.request.problemClass = "S";
  request.request.machine = "test-numa4";
  request.request.deadlineMs = 50;
  payloads.push_back(encodeServeMessage(request));

  ServeMessage shed;
  shed.kind = ServeMessage::Kind::kResponse;
  shed.response.requestId = 1;
  shed.response.status = ResponseStatus::kShed;
  shed.response.shedReason = ShedReason::kQueueFull;
  shed.response.queueDepth = 16;
  payloads.push_back(encodeServeMessage(shed));

  ServeMessage ok;
  ok.kind = ServeMessage::Kind::kResponse;
  ok.response.requestId = 2;
  ok.response.status = ResponseStatus::kOk;
  ok.response.tier = 0;
  ok.response.bestCores = 4;
  ok.response.bestSpeedup = 2.5;
  ok.response.efficientCores = 2;
  payloads.push_back(encodeServeMessage(ok));

  return payloads;
}

/// Applies the seed's send-side fault schedule to a frame sequence and
/// returns the resulting byte stream — what a chaos transport's peer
/// would read off the socket. Time-shaped faults (delay, stall,
/// partition) don't change bytes; partitions are modelled as their
/// observable effect, a dropped window.
std::string chaosStream(const std::vector<std::string>& payloads,
                        std::uint64_t seed) {
  const NetFaultPlan plan = planFromSeed(seed);
  std::string stream;
  std::string held;  // reorder hold, flushed after the next frame
  for (std::uint64_t index = 0; index < payloads.size(); ++index) {
    std::string frame = exec::encodeFrame(payloads[index]);
    bool drop = false;
    bool duplicate = false;
    bool reorder = false;
    for (std::size_t e = 0; e < plan.events().size(); ++e) {
      const NetFaultEvent& event = plan.events()[e];
      if (!faultFires(event, e, seed, /*connectionId=*/0,
                      NetDirection::kSend, index)) {
        continue;
      }
      switch (event.kind) {
        case NetFaultKind::kDrop:
        case NetFaultKind::kPartition:
          drop = true;
          break;
        case NetFaultKind::kDuplicate:
          duplicate = true;
          break;
        case NetFaultKind::kReorder:
          reorder = true;
          break;
        case NetFaultKind::kCorrupt: {
          const std::uint64_t mix = chaosMix(seed, 0, e, index, 0xb17);
          const std::size_t bit = mix % (frame.size() * 8);
          frame[bit / 8] ^= static_cast<char>(1u << (bit % 8));
          break;
        }
        case NetFaultKind::kTruncate: {
          const std::size_t keep = event.param == 0
                                       ? 1
                                       : static_cast<std::size_t>(event.param);
          frame.resize(std::max<std::size_t>(
              1, std::min(keep, frame.size() - 1)));
          break;
        }
        case NetFaultKind::kHalfClose:
          return stream;  // stream ends mid-conversation
        case NetFaultKind::kStall:
        case NetFaultKind::kDelay:
          break;  // timing-only: no byte-level effect
      }
    }
    if (drop) {
      continue;
    }
    if (reorder && held.empty()) {
      held = std::move(frame);
      continue;
    }
    stream += frame;
    if (duplicate) {
      stream += frame;
    }
    if (!held.empty()) {
      stream += held;
      held.clear();
    }
  }
  stream += held;  // flush like EOF does
  return stream;
}

bool writeFile(const std::filesystem::path& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), out);
  std::fclose(out);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  const std::filesystem::path wireDir = root / "wire_message";
  const std::filesystem::path serveDir = root / "serve_message";
  const std::filesystem::path ipcDir = root / "ipc_frame";
  std::error_code ec;
  std::filesystem::create_directories(wireDir, ec);
  std::filesystem::create_directories(serveDir, ec);
  std::filesystem::create_directories(ipcDir, ec);

  const std::vector<std::string> wire = wirePayloads();
  const std::vector<std::string> serve = servePayloads();

  bool ok = true;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // fuzz_wire_message's first input byte picks the reassembly chunk
    // stride — derive it from the seed so the corpus covers several
    // TCP segmentation shapes too.
    std::string stream;
    stream.push_back(static_cast<char>(seed % 7));
    stream += chaosStream(wire, seed);
    ok = writeFile(wireDir / ("chaos_" + std::to_string(seed) + ".bin"),
                   stream) &&
         ok;

    // fuzz_serve_message consumes raw payloads: chaos-corrupt one
    // canonical payload per seed (bit flip + truncation keyed the same
    // way the transport keys them).
    std::string payload = serve[seed % serve.size()];
    const std::uint64_t mix = chaosMix(seed, 0, 0, 0, 0x5e12e);
    const std::size_t bit = mix % (payload.size() * 8);
    payload[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    if (seed % 2 == 0) {
      payload.resize(1 + mix % payload.size());
    }
    ok = writeFile(serveDir / ("chaos_" + std::to_string(seed) + ".bin"),
                   payload) &&
         ok;
  }
  // One intact stream so the fixed-point probes start from accepted
  // canonical bytes as well.
  std::string intact;
  intact.push_back(0);
  for (const std::string& payload : wire) {
    intact += exec::encodeFrame(payload);
  }
  ok = writeFile(wireDir / "canonical.bin", intact) && ok;
  for (std::size_t i = 0; i < serve.size(); ++i) {
    ok = writeFile(serveDir / ("canonical_" + std::to_string(i) + ".bin"),
                   serve[i]) &&
         ok;
  }
  for (const auto& [name, payload] : ipcPayloads()) {
    ok = writeFile(ipcDir / name, payload) && ok;
  }
  return ok ? 0 : 1;
}
