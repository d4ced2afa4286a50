// papiex_sim: run any (program.class, machine, cores) configuration on the
// simulator and print a papiex-style hardware-counter report plus optional
// CSV export — the workflow the paper's measurement methodology used, as a
// single command.
//
// Usage: papiex_sim [program.class] [machine] [cores] [--csv file.csv]
//   machine: uma8 | numa24 | amd48   (default numa24)
//   cores:   active cores, 1..all    (default all)
// Examples:
//   papiex_sim SP.C numa24 12
//   papiex_sim x264.native amd48 48 --csv x264.csv

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "core/occm.hpp"
#include "example_args.hpp"

namespace {

using namespace occm;

topology::MachineSpec parseMachine(const std::string& name) {
  if (name == "uma8") return topology::intelUma8();
  if (name == "numa24") return topology::intelNuma24();
  if (name == "amd48") return topology::amdNuma48();
  examples::rejectArg("unknown machine '" + name + "' (uma8|numa24|amd48)");
}

}  // namespace

int main(int argc, char** argv) {
  workloads::WorkloadSpec workload;  // CG.C default
  topology::MachineSpec machine = topology::intelNuma24();
  int cores = 0;
  std::string csvPath;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csvPath = argv[++i];
      continue;
    }
    switch (positional++) {
      case 0:
        workload = examples::workloadArg(argv[i]);
        break;
      case 1:
        machine = parseMachine(argv[i]);
        break;
      case 2:
        cores = examples::coresArg(argv[i], machine);
        break;
      default:
        std::fprintf(stderr, "error: too many arguments\n");
        return 1;
    }
  }
  if (cores == 0) {
    cores = machine.logicalCores();
  }

  const perf::RunProfile profile =
      analysis::runOnce(machine, workload, cores);
  std::printf("%s", perf::formatReport(profile).c_str());

  if (!csvPath.empty()) {
    analysis::SweepResult single;
    single.profiles.push_back(profile);
    analysis::writeFile(csvPath, analysis::sweepToCsv(single));
    std::printf("  CSV written : %s\n", csvPath.c_str());
  }
  return 0;
}
