// Quickstart: fit the contention model to a handful of measured runs and
// predict the degree of memory contention at every core count.
//
// This example uses the pure-model API (no simulator): the "measurements"
// are total-cycle counts like the ones PAPI would report — here, the
// paper's protocol on a 2-socket, 12-cores-per-socket NUMA machine using
// the four regression inputs C(1), C(2), C(12), C(13).

#include <cstdio>
#include <cstring>

#include "core/contention_model.hpp"

int main(int argc, char** argv) {
  using namespace occm;

  // Strict arguments: this example takes none; anything but --help is an
  // error (usage on stderr, exit 2) instead of a silent ignore.
  for (int i = 1; i < argc; ++i) {
    const bool help = std::strcmp(argv[i], "--help") == 0 ||
                      std::strcmp(argv[i], "-h") == 0;
    std::fprintf(help ? stdout : stderr, "usage: %s\n  (no arguments)\n",
                 argv[0]);
    if (!help) {
      std::fprintf(stderr, "error: unrecognized argument \"%s\"\n", argv[i]);
    }
    return help ? 0 : 2;
  }

  // Machine shape: what the model needs to know about the topology.
  model::MachineShape shape;
  shape.coresPerProcessor = 12;
  shape.processors = 2;
  shape.architecture = topology::MemoryArchitecture::kNuma;

  // Four measured runs (total cycles across all active cores).
  const model::MeasuredPoint measured[] = {
      {1, 4.10e11},
      {2, 4.35e11},
      {12, 9.80e11},
      {13, 9.15e11},  // second controller comes online: contention drops
  };

  const auto fitted = model::ContentionModel::tryFit(shape, measured);
  if (!fitted) {
    std::fprintf(stderr, "error: model fit failed: %s\n",
                 fitted.error().describe().c_str());
    return 1;
  }
  const model::ContentionModel& m = *fitted;

  std::printf("Fitted single-processor M/M/1: mu/r = %.3e, L/r = %.3e\n",
              m.singleProcessor().muOverR(), m.singleProcessor().lOverR());
  std::printf("Queue saturates at n = %.1f cores\n",
              m.singleProcessor().saturationCores());
  std::printf("Colinearity R^2 of 1/C(n): %.3f\n\n",
              m.singleProcessor().fitInfo().r2);

  std::printf("%6s  %14s  %10s\n", "cores", "C(n) predicted", "omega(n)");
  for (int n = 1; n <= shape.totalCores(); ++n) {
    std::printf("%6d  %14.4e  %10.3f\n", n, m.predictCycles(n),
                m.predictOmega(n));
  }
  return 0;
}
