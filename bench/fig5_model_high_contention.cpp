// Figure 5 — model vs. measured degree of memory contention omega(n) for
// the high-contention program CG.C on the three machines, using the
// paper's regression inputs: C(1), C(4), C(5) on Intel UMA; C(1), C(2),
// C(12), C(13) on Intel NUMA; C(1), C(12), C(13), C(25), C(37) on AMD
// (heterogeneous interconnect). The paper reports 5-14% average relative
// error; it also reports that assuming a homogeneous interconnect on AMD
// (three regression inputs) degrades the error to ~25%.

#include "bench_util.hpp"

namespace {

using namespace occm;

void runMachine(const topology::MachineSpec& machine) {
  bench::printHeading("Fig. 5 — CG.C model vs. measurement on " +
                      machine.name);
  const auto sweep = bench::sweep(machine, workloads::Program::kCG,
                                  workloads::ProblemClass::kC,
                                  bench::allCores(machine));
  const model::MachineShape shape = model::shapeOf(machine);
  const auto fitCores = model::defaultFitCores(shape);
  std::printf("regression inputs: C(n) at n =");
  for (int n : fitCores) {
    std::printf(" %d", n);
  }
  std::printf("\n\n");

  const auto fitPoints = analysis::pointsAt(sweep, fitCores);
  const model::ContentionModel m = bench::fitOrExit(shape, fitPoints);
  const model::ValidationReport report = model::validate(m, sweep.points());

  analysis::TextTable table;
  table.header({"cores", "omega measured", "omega model", "rel. error"});
  for (const model::ValidationRow& row : report.rows) {
    table.row({std::to_string(row.cores), analysis::fmt(row.measuredOmega),
               analysis::fmt(row.predictedOmega),
               analysis::fmt(100.0 * row.relativeError, 1) + "%"});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nmean relative error (cycles): %.1f%%   (paper: 5-14%% average "
      "on high-contention programs)\n",
      100.0 * report.meanRelativeError);
  std::printf("single-processor fit: mu/r = %.3e, L/r = %.3e, R^2 = %.3f, "
              "saturation at n = %.1f\n",
              m.singleProcessor().muOverR(), m.singleProcessor().lOverR(),
              m.singleProcessor().fitInfo().r2,
              m.singleProcessor().saturationCores());

  // The paper's homogeneous-interconnect degradation on AMD.
  if (shape.processors > 2) {
    model::ContentionModel::Options homogeneous;
    homogeneous.homogeneousRemote = true;
    const auto threePoints = analysis::pointsAt(
        sweep, {1, shape.coresPerProcessor, shape.coresPerProcessor + 1});
    const model::ContentionModel hm =
        bench::fitOrExit(shape, threePoints, homogeneous);
    const model::ValidationReport hreport = model::validate(hm, sweep.points());
    std::printf(
        "homogeneous-interconnect variant (3 inputs): %.1f%% mean error "
        "(paper: degrades to ~25%%)\n",
        100.0 * hreport.meanRelativeError);
  }
}

}  // namespace

int main(int argc, char** argv) {
  occm::bench::parseBenchArgs(argc, argv);
  for (const auto& machine : occm::topology::paperMachines()) {
    runMachine(machine);
  }
  return 0;
}
