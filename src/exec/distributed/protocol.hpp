#pragma once

// Wire protocol of the distributed sweep fleet: the typed messages a
// coordinator and its workers exchange over framed TCP (the same
// length-prefixed CRC-32 frames as the isolation pipe, reassembled from
// the stream by exec/frame_transport).
//
// Layering: exec sits below analysis, so the protocol knows nothing about
// SweepConfig. A JobSpec carries everything a worker needs to rebuild one
// (core count) run bit-identically — the full MachineSpec (not a preset
// name: the coordinator's spec is authoritative even when hand-tuned),
// the workload identity as strings, the sim scalars, and the fault plan
// as its canonical JSON. The analysis glue (analysis/distributed_sweep)
// maps JobSpec <-> SweepConfig and injects the task runner.
//
// A kResult is the task id followed by the run's outcome in the one
// outcome encoding (exec/wire_codec putOutcome), so it carries only the
// four kinds a *run* can produce (exception / timeout / cancelled /
// crash). Coordinator-local outcomes — a worker that died mid-lease, a
// handshake that failed, a corrupt frame — are never on the wire; the
// coordinator synthesizes them itself.
//
// Versioned handshake: a worker opens with kHello carrying
// kProtocolVersion; the coordinator answers kWelcome (same version) or
// kReject with a reason and drops the connection. Every decode is
// bounds-checked through exec::wire::Reader — arbitrary bytes produce a
// typed IpcError, never a throw (fuzz/fuzz_wire_message.cpp).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "common/types.hpp"
#include "exec/ipc.hpp"
#include "perf/run_profile.hpp"
#include "topology/machine_spec.hpp"

namespace occm::exec::dist {

/// Bumped on any incompatible message/codec change; a mismatched hello is
/// rejected before any job bytes flow.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// One (core count) unit of work, self-contained: a worker rebuilds the
/// workload and simulator from these fields alone, so its profile is
/// bit-identical to the same task run in-process by the coordinator.
struct JobSpec {
  std::uint64_t taskId = 0;  ///< request-order index; result routing key
  int cores = 0;
  int maxAttempts = 1;

  // Workload identity (parsed back by the analysis layer).
  std::string program;       ///< "CG", "x264", ...
  std::string problemClass;  ///< "C", "native", ...
  int threads = 0;
  std::uint64_t workloadSeed = 0;

  topology::MachineSpec machine;

  // sim::SimConfig scalars (observability and cancellation stay local).
  Cycles schedQuantum = 0;
  Cycles schedSwitchCost = 0;
  std::uint8_t memPlacement = 0;  ///< mem::PlacementPolicy numeric value
  std::uint8_t memService = 0;    ///< mem::ServiceDiscipline numeric value
  std::uint64_t memSeed = 0;
  bool enableSampler = false;
  double samplerWindowNs = 5000.0;
  Cycles syncHorizon = 0;
  Cycles cycleBudget = 0;
  std::uint64_t simSeed = 0;
  /// fault::toJson of the sweep's fault plan; empty = no plan. JSON (not
  /// a binary codec) because fault/fault_plan_io already round-trips the
  /// plan exactly and is fuzz-hardened.
  std::string faultPlanJson;
};

/// What a worker reports for one finished task: the task's outcome, the
/// same record an isolated child reports to its supervisor.
struct TaskResult {
  std::uint64_t taskId = 0;
  RunOutcome outcome;
};

/// One frame payload in either direction. A tagged union kept flat (the
/// unused members of a kind stay default-constructed) so the codec is a
/// single switch in each direction.
struct WireMessage {
  enum class Kind : std::uint8_t {
    kHello = 1,     ///< worker -> coord: version + worker id
    kWelcome = 2,   ///< coord -> worker: handshake accepted
    kReject = 3,    ///< coord -> worker: handshake refused (reason)
    kAssign = 4,    ///< coord -> worker: run this job
    kResult = 5,    ///< worker -> coord: finished job outcome
    kPing = 6,      ///< coord -> worker: liveness probe
    kPong = 7,      ///< worker -> coord: probe echo
    kShutdown = 8,  ///< coord -> worker: drain and disconnect (reason)
  };

  Kind kind = Kind::kHello;
  std::uint32_t protocolVersion = kProtocolVersion;  ///< kHello / kWelcome
  std::string workerId;                              ///< kHello
  std::string reason;                                ///< kReject / kShutdown
  JobSpec job;                                       ///< kAssign
  TaskResult result;                                 ///< kResult
  std::uint64_t pingId = 0;         ///< kPing / kPong (echoed)
  std::uint64_t pingSentNs = 0;     ///< kPing / kPong (echoed, RTT anchor)
};

/// Serializes one message (frame payload only; the transport frames it).
[[nodiscard]] std::string encodeMessage(const WireMessage& message);

/// Decodes what encodeMessage produced. Every field is bounds-checked and
/// every enum range-validated; arbitrary bytes yield a typed IpcError.
[[nodiscard]] Expected<WireMessage, IpcError> decodeMessage(
    std::string_view payload);

}  // namespace occm::exec::dist
