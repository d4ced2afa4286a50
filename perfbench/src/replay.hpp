#pragma once

// Replay-based per-layer split of one simulated run, measured from outside
// the simulator through public functions only:
//
//  - workloads: drain each thread's RefStream alone (RefStream::next);
//  - cache:     a benchmark-owned CacheHierarchy::access over the ops a
//               real run consumed, captured in the order the simulator
//               consumed them and placed on the run's thread-to-core pins;
//  - mem:       a benchmark-owned MemorySystem::request/writeback over the
//               off-chip stream the cache replay produced, issued in
//               nondecreasing time spread evenly over the run's makespan.
//
// The cache replay sees the same accesses in the same order as the
// simulator, so with a full capture its LLC misses match the run's. The
// memory replay only approximates the simulator's request timing, so the
// layers do not add up to sim.run exactly; the remainder is reported as an
// explicit residual (accountLayers), never hidden.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/machine_sim.hpp"
#include "topology/topology_map.hpp"
#include "trace/ref_stream.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct CapturedOp {
  occm::Addr addr = 0;
  std::uint32_t thread = 0;
  bool write = false;
};

/// Bounded log of the ops a run's streams handed out, in the order the
/// simulator consumed them. Ops past the capacity are counted, not kept.
class CaptureLog {
 public:
  explicit CaptureLog(std::size_t capacity) : capacity_(capacity) {
    ops_.reserve(capacity);
  }

  void record(std::uint32_t thread, const occm::trace::Op& op) {
    ++seen_;
    if (ops_.size() < capacity_) {
      ops_.push_back({op.addr, thread, op.write});
    }
  }

  [[nodiscard]] const std::vector<CapturedOp>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t capacity_;
  std::vector<CapturedOp> ops_;
  std::uint64_t seen_ = 0;
};

/// Moves every thread stream of `instance` behind a recorder that logs
/// into `log`. The returned streams produce exactly the original ops.
[[nodiscard]] std::vector<occm::trace::RefStreamPtr> wrapForCapture(
    occm::workloads::WorkloadInstance& instance, CaptureLog& log);

struct StreamReplay {
  std::uint64_t ops = 0;
  double seconds = 0.0;
};

/// Resets and drains each thread's stream alone, timing RefStream::next.
[[nodiscard]] StreamReplay replayStreams(
    occm::workloads::WorkloadInstance& instance);

struct OffChipAccess {
  occm::Addr addr = 0;
  occm::Addr writebackLine = 0;
  std::uint32_t opIndex = 0;  ///< position in the captured op order
  occm::CoreId core = 0;
  bool writeback = false;
};

struct CacheReplay {
  std::uint64_t accesses = 0;
  std::uint64_t l1Hits = 0;
  std::uint64_t l2Lookups = 0;  ///< accesses that missed L1
  std::uint64_t l2Hits = 0;
  std::uint64_t offChip = 0;
  double seconds = 0.0;
  std::vector<OffChipAccess> offChipStream;
};

/// Replays `ops` through a fresh CacheHierarchy with `threads` threads
/// pinned round-robin on `activeCores` cores, as the simulator pins them.
[[nodiscard]] CacheReplay replayCache(const occm::topology::TopologyMap& topo,
                                      int threads, int activeCores,
                                      const std::vector<CapturedOp>& ops);

struct MemReplay {
  std::uint64_t requests = 0;
  std::uint64_t writebacks = 0;
  double seconds = 0.0;
};

/// Replays the cache replay's off-chip stream through a fresh MemorySystem
/// configured as the simulator configures it for `activeCores`. Access k
/// of the run's `totalOps` is issued at cycle k * makespan / totalOps.
[[nodiscard]] MemReplay replayMemory(const occm::topology::TopologyMap& topo,
                                     const occm::sim::SimConfig& sim,
                                     int activeCores,
                                     const std::vector<OffChipAccess>& stream,
                                     occm::Cycles makespan,
                                     std::uint64_t totalOps);

/// sim.run split into the three replayed layers plus what they leave
/// unexplained. By construction the parts add up to simRunS exactly.
struct LayerAccounting {
  double simRunS = 0.0;
  double workloadsS = 0.0;
  double cacheS = 0.0;
  double memS = 0.0;
  double residualS = 0.0;  ///< may be negative: replays can cost more

  [[nodiscard]] double residualPct() const noexcept {
    return simRunS > 0.0 ? 100.0 * residualS / simRunS : 0.0;
  }
};

/// Scales each layer's replayed cost per unit to the run's full work
/// (`ops` stream ops and cache accesses, `transfers` memory requests plus
/// writebacks) and attributes the rest of `simRunS` to the residual.
[[nodiscard]] LayerAccounting accountLayers(double simRunS, double nsPerOp,
                                            double nsPerAccess,
                                            double nsPerTransfer,
                                            std::uint64_t ops,
                                            std::uint64_t transfers);

}  // namespace perfbench
