// Figure 6 — model vs. measured omega(n) for the low-contention program
// EP.C on the three machines. The paper's observations: contention is
// negligible on UMA; on the NUMA machines the model cannot capture the
// contention rise beyond one processor because EP's LLC misses *grow*
// with active cores (false sharing), violating the model's constant-r(n)
// assumption — model accuracy is intentionally worse here.

#include "bench_util.hpp"

namespace {

using namespace occm;

void runMachine(const topology::MachineSpec& machine) {
  bench::printHeading("Fig. 6 — EP.C model vs. measurement on " +
                      machine.name);
  const auto sweep = bench::sweep(machine, workloads::Program::kEP,
                                  workloads::ProblemClass::kC,
                                  bench::allCores(machine));
  const model::MachineShape shape = model::shapeOf(machine);
  const auto fitPoints =
      analysis::pointsAt(sweep, model::defaultFitCores(shape));
  const model::ContentionModel m = bench::fitOrExit(shape, fitPoints);
  const model::ValidationReport report = model::validate(m, sweep.points());

  analysis::TextTable table;
  table.header({"cores", "omega measured", "omega model", "LLC misses",
                "coherence misses"});
  for (const model::ValidationRow& row : report.rows) {
    const perf::RunProfile& p = sweep.at(row.cores);
    table.row({std::to_string(row.cores), analysis::fmt(row.measuredOmega),
               analysis::fmt(row.predictedOmega),
               std::to_string(p.counters.llcMisses),
               std::to_string(p.coherenceMisses)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nmean relative error: %.1f%% (the paper's model is also "
              "least accurate here)\n",
              100.0 * report.meanRelativeError);
  const auto& first = sweep.profiles.front();
  const auto& last = sweep.profiles.back();
  std::printf("LLC misses grow %llu -> %llu with active cores "
              "(paper: 1.8e3 -> 3.1e7 on Intel NUMA) — the violated "
              "model assumption\n",
              static_cast<unsigned long long>(first.counters.llcMisses),
              static_cast<unsigned long long>(last.counters.llcMisses));
}

}  // namespace

int main(int argc, char** argv) {
  occm::bench::parseBenchArgs(argc, argv);
  for (const auto& machine : occm::topology::paperMachines()) {
    runMachine(machine);
  }
  return 0;
}
