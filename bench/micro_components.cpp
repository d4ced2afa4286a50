// Component microbenchmarks (google-benchmark): throughput of the
// building blocks the experiment harnesses stress — cache lookups, the
// full hierarchy path, memory-system requests, workload stream
// generation, regression fitting and CCDF construction.

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "mem/memory_system.hpp"
#include "sim/machine_sim.hpp"
#include "stats/distribution.hpp"
#include "stats/regression.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace occm;

void BM_CacheAccessHit(benchmark::State& state) {
  cache::SetAssocCache cache(32 * kKiB, 64, 8);
  for (Addr a = 0; a < 16 * kKiB; a += 64) {
    (void)cache.insert(a, false);
  }
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false));
    addr = (addr + 64) % (16 * kKiB);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessMissInsert(benchmark::State& state) {
  cache::SetAssocCache cache(32 * kKiB, 64, 8);
  Addr addr = 0;
  for (auto _ : state) {
    if (!cache.access(addr, false)) {
      (void)cache.insert(addr, false);
    }
    addr += 64;  // endless stream: every access a miss after warmup
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessMissInsert);

void BM_HierarchyAccess(benchmark::State& state) {
  topology::TopologyMap topo(topology::intelNuma24());
  cache::CacheHierarchy hierarchy(topo);
  Rng rng(1);
  for (auto _ : state) {
    const Addr addr = rng.below(16 * kMiB) & ~Addr{7};
    benchmark::DoNotOptimize(hierarchy.access(0, addr, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_MemoryRequest(benchmark::State& state) {
  topology::TopologyMap topo(topology::intelNuma24());
  mem::MemoryConfig config;
  mem::MemorySystem memory(topo, config, {0, 1});
  Cycles now = 0;
  Rng rng(2);
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(
        memory.request(now, 0, rng.below(64 * kMiB)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryRequest);

void BM_WorkloadStreamGeneration(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kW;
  spec.threads = 1;
  const auto instance = workloads::makeWorkload(spec);
  trace::Op op;
  for (auto _ : state) {
    if (!instance.threads[0]->next(op)) {
      instance.threads[0]->reset();
    }
    benchmark::DoNotOptimize(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadStreamGeneration);

void BM_LinearFit(benchmark::State& state) {
  Rng rng(3);
  std::vector<stats::Point> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({static_cast<double>(i),
                      2.0 * i + rng.uniform(-1.0, 1.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fitLinear(points));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearFit);

void BM_EmpiricalCcdf(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(rng.boundedPareto(1.3, 1.0, 10000.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::empiricalCcdf(samples));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_EmpiricalCcdf);

void BM_FullSmallSimulation(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::MachineSim sim(topology::testNuma4());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulation)->Unit(benchmark::kMillisecond);

// Observability overhead proof: the three cases below run the identical
// simulation with (a) tracing compiled in but disabled at runtime — the
// default every other benchmark and test pays, expected within 2% of
// BM_FullSmallSimulation since the hooks reduce to never-taken branches —
// (b) windowed metrics on, and (c) metrics plus the event trace.
void BM_FullSmallSimulationObsDisabled(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.observability = obs::ObsConfig{};  // explicit: all off
  sim::MachineSim sim(topology::testNuma4(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulationObsDisabled)->Unit(benchmark::kMillisecond);

void BM_FullSmallSimulationObsMetrics(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.observability.metrics = true;
  sim::MachineSim sim(topology::testNuma4(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulationObsMetrics)->Unit(benchmark::kMillisecond);

void BM_FullSmallSimulationObsFull(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.observability.metrics = true;
  config.observability.trace = true;
  sim::MachineSim sim(topology::testNuma4(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulationObsFull)->Unit(benchmark::kMillisecond);

// Fault-injection overhead proof: an explicit empty FaultPlan must cost
// nothing — the engine reports idle() and the per-request advanceTo hook
// reduces to a never-taken branch. Expected within noise of
// BM_FullSmallSimulation; the Faulty variant shows what a live scenario
// (outage + throttle + background traffic) actually costs.
void BM_FullSmallSimulationNullFaultPlan(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.faultPlan = fault::FaultPlan{};  // explicit: no faults scripted
  sim::MachineSim sim(topology::testNuma4(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulationNullFaultPlan)->Unit(benchmark::kMillisecond);

void BM_FullSmallSimulationFaultActive(benchmark::State& state) {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.faultPlan.controllerOutage(1, 20'000, 120'000)
      .coreThrottle(0, 10'000, 60'000, 2.0)
      .backgroundTraffic(0, 0, 50'000, 500);
  sim::MachineSim sim(topology::testNuma4(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(instance.threads, 4, instance.name));
  }
}
BENCHMARK(BM_FullSmallSimulationFaultActive)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
