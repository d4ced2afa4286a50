#include "replay.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "cache/hierarchy.hpp"
#include "mem/memory_system.hpp"
#include "sched/affinity.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class RecordingStream final : public occm::trace::RefStream {
 public:
  RecordingStream(occm::trace::RefStreamPtr inner, std::uint32_t thread,
                  CaptureLog& log)
      : inner_(std::move(inner)), thread_(thread), log_(log) {}

  bool next(occm::trace::Op& op) override {
    if (!inner_->next(op)) {
      return false;
    }
    log_.record(thread_, op);
    return true;
  }

  void reset() override { inner_->reset(); }

 private:
  occm::trace::RefStreamPtr inner_;
  std::uint32_t thread_;
  CaptureLog& log_;
};

}  // namespace

std::vector<occm::trace::RefStreamPtr> wrapForCapture(
    occm::workloads::WorkloadInstance& instance, CaptureLog& log) {
  std::vector<occm::trace::RefStreamPtr> out;
  out.reserve(instance.threads.size());
  for (std::size_t t = 0; t < instance.threads.size(); ++t) {
    out.push_back(std::make_unique<RecordingStream>(
        std::move(instance.threads[t]), static_cast<std::uint32_t>(t), log));
  }
  instance.threads.clear();
  return out;
}

StreamReplay replayStreams(occm::workloads::WorkloadInstance& instance) {
  StreamReplay out;
  occm::trace::Op op;
  for (const occm::trace::RefStreamPtr& stream : instance.threads) {
    stream->reset();
  }
  const auto start = Clock::now();
  for (const occm::trace::RefStreamPtr& stream : instance.threads) {
    while (stream->next(op)) {
      ++out.ops;
    }
  }
  out.seconds = secondsSince(start);
  return out;
}

CacheReplay replayCache(const occm::topology::TopologyMap& topo, int threads,
                        int activeCores, const std::vector<CapturedOp>& ops) {
  const occm::sched::Pinning pinning =
      occm::sched::pinRoundRobin(topo, threads, activeCores);
  occm::cache::CacheHierarchy hierarchy(topo);
  CacheReplay out;
  out.offChipStream.reserve(ops.size() / 4);
  std::uint64_t hitsAt[3] = {0, 0, 0};  // [0] = other levels
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CapturedOp& op = ops[i];
    const occm::CoreId core = pinning.pinnedCore[op.thread];
    const occm::cache::AccessResult r =
        hierarchy.access(core, op.addr, op.write);
    ++hitsAt[r.hitLevel == 1 || r.hitLevel == 2 ? r.hitLevel : 0];
    if (r.offChip) {
      out.offChipStream.push_back({op.addr, r.writebackLine,
                                   static_cast<std::uint32_t>(i), core,
                                   r.writeback});
    }
  }
  out.seconds = secondsSince(start);
  out.accesses = ops.size();
  out.l1Hits = hitsAt[1];
  out.l2Lookups = out.accesses - out.l1Hits;
  out.l2Hits = hitsAt[2];
  out.offChip = out.offChipStream.size();
  return out;
}

MemReplay replayMemory(const occm::topology::TopologyMap& topo,
                       const occm::sim::SimConfig& sim, int activeCores,
                       const std::vector<OffChipAccess>& stream,
                       occm::Cycles makespan, std::uint64_t totalOps) {
  // The simulator's memory-system set-up for this core count
  // (MachineSim::run): seed mixing, active controllers and their weights.
  occm::mem::MemoryConfig config = sim.memory;
  config.seed ^= sim.seed * 0x9e3779b97f4a7c15ULL;
  const std::vector<occm::NodeId> nodes = topo.activeNodes(activeCores);
  std::vector<int> weights;
  weights.reserve(nodes.size());
  for (const occm::NodeId node : nodes) {
    int weight = 0;
    for (const occm::CoreId c : topo.activeCores(activeCores)) {
      weight += topo.homeNode(c) == node ? 1 : 0;
    }
    weights.push_back(weight);
  }
  occm::mem::MemorySystem memory(topo, config, nodes, std::move(weights));

  // Issue times are computed before the clock starts.
  std::vector<occm::Cycles> when(stream.size());
  const double cyclesPerOp =
      totalOps == 0 ? 0.0
                    : static_cast<double>(makespan) /
                          static_cast<double>(totalOps);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    when[i] = static_cast<occm::Cycles>(
        static_cast<double>(stream[i].opIndex) * cyclesPerOp);
  }

  MemReplay out;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const OffChipAccess& a = stream[i];
    (void)memory.request(when[i], a.core, a.addr);
    if (a.writeback) {
      memory.writeback(when[i], a.core, a.writebackLine);
    }
  }
  out.seconds = secondsSince(start);
  for (occm::NodeId n = 0; n < memory.controllers(); ++n) {
    out.requests += memory.controllerStats(n).requests;
    out.writebacks += memory.controllerStats(n).writebacks;
  }
  return out;
}

LayerAccounting accountLayers(double simRunS, double nsPerOp,
                              double nsPerAccess, double nsPerTransfer,
                              std::uint64_t ops, std::uint64_t transfers) {
  LayerAccounting a;
  a.simRunS = simRunS;
  a.workloadsS = nsPerOp * static_cast<double>(ops) / 1e9;
  a.cacheS = nsPerAccess * static_cast<double>(ops) / 1e9;
  a.memS = nsPerTransfer * static_cast<double>(transfers) / 1e9;
  a.residualS = simRunS - a.workloadsS - a.cacheS - a.memS;
  return a;
}

}  // namespace perfbench
