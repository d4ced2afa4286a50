// paper_report — Table II, Figs. 3-6 (with Table III) and Table IV of
// Tudor, Teo & See (ICPP 2011) plus the memory-system ablation, from one
// pass over the simulator: each distinct (program, class, machine, sim
// config) is one sweep over the union of the core counts its tables read.
// The paper's findings are claims, each with the paper's value, the
// measured one, a band (from the paper or the PaperPipeline tests' bounds,
// never from a measurement) and a verdict. The report exits 1, naming the
// claim, when a verdict differs from its expectation (kKnownDeviations).
//
// Usage: paper_report [--workers=N]   (sweep pool size)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/whole_integer.hpp"
#include "core/occm.hpp"
#include "exec/thread_pool.hpp"
#include "text_table.hpp"

namespace {

using namespace occm;
using bench::fmt;
using bench::TextTable;
using topology::MachineSpec;
using workloads::ProblemClass;
using workloads::Program;

/// Claims expected to fail, with what is known of each cause; ROADMAP
/// item 8 tracks them. Every other claim is expected to hold.
const std::set<std::string> kKnownDeviations = {
    // SP saturates near 4.4 on AMD's eight controllers (paper 9.84), AMD
    // FT's bank-conflicting z-pencils still queue (paper 0.46), and EP's
    // Intel NUMA rise tops out near 0.05 (paper 0.54).
    "table2.C.SP@amd-numa48", "table2.C.FT@amd-numa48",
    "table2.C.EP@intel-numa24",
    // The small SP contends like the large one at full cores.
    "table2.W.SP@intel-uma8", "table2.W.SP@intel-numa24",
    "table2.W.SP@amd-numa48",
    // The x264 proxy lacks the encoder's inter-frame stalls, so 24
    // threads smooth its aggregate traffic.
    "fig4.x264.sim_bursty",
    // EP.C's Intel NUMA misses fall from 1 to 24 cores; cause not named.
    "fig6.llc_growth@intel-numa24",
    // CG.C's AMD fit is the weakest of Fig. 5; EP.C's there is better.
    "fig6.error_above_cg@amd-numa48",
    // SP.C's 1/C(n) on Intel NUMA bends (R^2 0.775); on AMD, x264.native
    // (0.882) edges past CG.C (0.875).
    "table4.high_r2@intel-numa24", "table4.correlation@intel-numa24",
    "table4.correlation@amd-numa48",
};

struct Claim {
  std::string id;
  std::string paper;     ///< the paper's value or finding
  std::string measured;  ///< this run's value
  std::string band;      ///< what the measurement must satisfy
  bool holds = false;
};

using Claims = std::vector<Claim>;

std::string pct(double fraction) { return fmt(100.0 * fraction, 1) + "%"; }

/// Strict arguments: --workers=N and --help; anything else exits 2.
int parseWorkers(int argc, char** argv) {
  const auto usage = [&](std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--workers=N]\n"
                 "  --workers=N  sweep pool size (default: "
                 "OCCM_SWEEP_WORKERS or hardware concurrency)\n",
                 argc > 0 ? argv[0] : "paper_report");
  };
  int workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    std::string why;
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (flag != "--workers") {
      why = "unrecognized argument \"" + arg + "\"";
    } else if (const std::optional<int> value =
                   wholeInteger(arg.substr(eq + 1), 1, 1 << 20)) {
      workers = *value;
    } else {
      why = "bad value in \"" + arg + "\" (want an integer >= 1)";
    }
    if (!why.empty()) {
      std::fprintf(stderr, "error: %s\n", why.c_str());
      usage(stderr);
      std::exit(2);
    }
  }
  return workers;
}

void printHeading(const std::string& title) {
  const char* rule =
      "================================================================";
  std::printf("\n%s\n%s\n%s\n", rule, title.c_str(), rule);
}

/// A paper machine with its preset token, which names it in claim ids.
struct Machine {
  std::string token;
  MachineSpec spec;
};

/// The five NPB dwarfs of Table I, in the paper's row order.
const std::vector<Program> kDwarfs = {Program::kEP, Program::kIS,
                                      Program::kFT, Program::kCG,
                                      Program::kSP};

/// Large problem class per program and machine: class C, except FT.B on
/// the UMA machine (the paper: FT.C swaps on the 4 GB UMA box) and x264's
/// native input.
ProblemClass largeClassFor(Program program, const MachineSpec& m) {
  if (program == Program::kFT &&
      m.memoryArchitecture == topology::MemoryArchitecture::kUma) {
    return ProblemClass::kB;
  }
  return program == Program::kX264 ? ProblemClass::kNative : ProblemClass::kC;
}

std::vector<int> coresUpTo(int max) {
  std::vector<int> counts(static_cast<std::size_t>(max));
  std::iota(counts.begin(), counts.end(), 1);
  return counts;
}

/// Table IV's core counts: n = 1..4 on UMA, 1..12 on the NUMA machines.
std::vector<int> tableFourCores(const MachineSpec& m) {
  const bool uma = m.memoryArchitecture == topology::MemoryArchitecture::kUma;
  return coresUpTo(std::min(m.logicalCoresPerSocket(), uma ? 4 : 12));
}

/// Everything that identifies a sweep except its core counts. `variant`
/// names a change to the paper's machine or sim config (an ablation row,
/// the sampler); it is empty for the defaults.
struct Setup {
  MachineSpec machine;
  Program program;
  ProblemClass cls;
  sim::SimConfig sim = {};
  std::string variant = {};
};

/// Fig. 4's runs: the 5 us LLC-miss sampler on, which only adds
/// RunProfile::missWindows.
Setup sampled(const MachineSpec& m, Program program, ProblemClass cls) {
  Setup setup{m, program, cls, {}, "sampler"};
  setup.sim.enableSampler = true;
  return setup;
}

/// The report's distinct sweeps: need() declares the core counts a table
/// reads, runAll() runs each sweep once over their union, and of() hands
/// the result to the tables.
class Runs {
 public:
  void need(const Setup& setup, const std::vector<int>& cores) {
    Entry& entry = entries_.try_emplace(key(setup), Entry{setup, {}, {}})
                       .first->second;
    entry.cores.insert(cores.begin(), cores.end());
  }

  void runAll(int workers) {
    std::size_t runs = 0;
    for (auto& [name, entry] : entries_) {
      analysis::SweepConfig config;
      config.machine = entry.setup.machine;
      config.workload = {entry.setup.program, entry.setup.cls};
      config.sim = entry.setup.sim;
      config.coreCounts.assign(entry.cores.begin(), entry.cores.end());
      config.parallel.workers = workers;
      entry.result = analysis::runSweep(config);
      if (!entry.result.pendingCoreCounts().empty()) {
        std::fprintf(stderr, "\nerror: sweep %s: %s\n", name.c_str(),
                     entry.result.diagnostics().c_str());
        std::exit(1);
      }
      runs += entry.cores.size();
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\nsimulated %zu runs in %zu sweeps\n", runs, entries_.size());
  }

  [[nodiscard]] const analysis::SweepResult& of(const Setup& setup) const {
    const auto it = entries_.find(key(setup));
    OCCM_REQUIRE_MSG(it != entries_.end(), "no sweep planned: " + key(setup));
    return it->second.result;
  }

 private:
  struct Entry {
    Setup setup;
    std::set<int> cores;
    analysis::SweepResult result;
  };

  static std::string key(const Setup& s) {
    return s.machine.name + " / " + workloads::workloadName(s.program, s.cls) +
           " / " + s.variant;
  }

  std::map<std::string, Entry> entries_;
};

double omegaAt(const analysis::SweepResult& sweep, int cores) {
  return model::degreeOfContention(sweep.at(cores).totalCyclesD(),
                                   sweep.at(1).totalCyclesD());
}

/// Fits the contention model; on a FitError prints its diagnosis to
/// stderr and exits 1.
model::ContentionModel fitOrExit(
    const model::MachineShape& shape,
    std::span<const model::MeasuredPoint> points,
    const model::ContentionModel::Options& options = {}) {
  auto fitted = model::ContentionModel::tryFit(shape, points, options);
  if (!fitted) {
    std::fprintf(stderr, "error: model fit failed: %s\n",
                 fitted.error().describe().c_str());
    std::exit(1);
  }
  return std::move(*fitted);
}

// ---------------------------------------------------------------- Table II

/// Per dwarf, in kDwarfs order: Intel UMA n=4, n=8; Intel NUMA n=12, n=24;
/// AMD n=24, n=48.
constexpr double kPaperSmall[5][6] = {
    {0.00, 0.00, 0.03, 0.57, 0.01, 0.59}, {0.10, 0.57, 0.33, 0.33, 0.21, 0.44},
    {0.32, 0.58, 0.18, 0.34, 0.11, 0.23}, {0.01, 0.04, 0.10, 0.43, 0.11, 0.13},
    {0.32, 0.58, 0.10, 0.50, 0.13, 0.21},
};
constexpr double kPaperLarge[5][6] = {
    {0.00, 0.00, 0.01, 0.54, 0.06, 0.55}, {0.07, 0.56, 0.26, 0.85, 0.40, 0.70},
    {0.70, 1.80, 1.62, 3.94, 0.39, 0.46}, {0.91, 2.41, 1.43, 3.31, 0.83, 1.91},
    {3.34, 7.05, 6.55, 11.59, 4.69, 9.84},
};

/// Full-core Table II cells the reproduction is known to miss (ROADMAP
/// item 8). Each is checked against the paper's value within a factor of
/// two, the "rough factor" EXPERIMENTS.md reads Table II by, so that a fix
/// changes a verdict.
const std::set<std::string> kTrackedCells = {
    "C.SP@amd-numa48", "C.FT@amd-numa48",  "C.EP@intel-numa24",
    "W.SP@intel-uma8", "W.SP@intel-numa24", "W.SP@amd-numa48"};

void printTableTwo(const Runs& runs, const std::vector<Machine>& machines,
                   Claims& claims) {
  printHeading(
      "Table II — normalized increase in number of cycles, "
      "(C(n) - C(1)) / C(1)");
  for (const bool large : {false, true}) {
    const auto& paper = large ? kPaperLarge : kPaperSmall;
    TextTable table;
    table.header({"Program", "UMA n=4", "(paper)", "UMA n=8", "(paper)",
                  "NUMA n=12", "(paper)", "NUMA n=24", "(paper)",
                  "AMD n=24", "(paper)", "AMD n=48", "(paper)"});
    std::vector<std::vector<double>> full(machines.size());  // [machine][dwarf]
    for (std::size_t p = 0; p < kDwarfs.size(); ++p) {
      std::vector<std::string> row{programName(kDwarfs[p])};
      int column = 0;
      for (std::size_t mi = 0; mi < machines.size(); ++mi) {
        const MachineSpec& m = machines[mi].spec;
        const auto& sweep = runs.of(
            {m, kDwarfs[p], large ? largeClassFor(kDwarfs[p], m) : ProblemClass::kW});
        for (const int n : {m.logicalCores() / 2, m.logicalCores()}) {
          row.push_back(fmt(omegaAt(sweep, n)));
          row.push_back(fmt(paper[p][column++]));
        }
        const double want = paper[p][column - 1];
        full[mi].push_back(omegaAt(sweep, m.logicalCores()));
        const std::string cell = std::string(large ? "C." : "W.") +
                                 programName(kDwarfs[p]) + "@" +
                                 machines[mi].token;
        if (kTrackedCells.count(cell) != 0) {
          claims.push_back({"table2." + cell, "omega(full) " + fmt(want),
                            fmt(full[mi].back()),
                            fmt(want / 2) + ".." + fmt(want * 2) + " (x0.5..x2)",
                            full[mi].back() >= want / 2 &&
                                full[mi].back() <= want * 2});
        }
      }
      table.row(std::move(row));
    }
    std::printf("\n%s problem size (%s):\n\n%s", large ? "Large" : "Small (W)",
                large ? "C; FT.B on UMA" : "W", table.str().c_str());

    for (std::size_t mi = 0; large && mi < machines.size(); ++mi) {
      const std::vector<double>& w = full[mi];  // EP IS FT CG SP
      claims.push_back(
          {"table2.order@" + machines[mi].token, "SP >> FT/CG >> IS >> EP",
           "SP " + fmt(w[4]) + ", FT " + fmt(w[2]) + ", CG " + fmt(w[3]) +
               ", IS " + fmt(w[1]) + ", EP " + fmt(w[0]),
           "SP > FT,CG > IS > EP",
           w[4] > std::max(w[2], w[3]) && std::min(w[2], w[3]) > w[1] &&
               w[1] > w[0]});
    }
  }
}

// ---------------------------------------------------------------- Fig. 3

/// Observability columns: busiest-controller utilization, aggregate
/// row-hit ratio and request-weighted mean queue wait.
void appendObsCells(const perf::RunProfile& p, std::vector<std::string>& row) {
  double util = 0.0;
  for (std::size_t i = 0; i < p.controllerStats.size(); ++i) {
    util = std::max(util, p.controllerUtilization(i));
  }
  double rowHit = 0.0;
  double wait = 0.0;
  std::uint64_t requests = 0;
  for (const mem::ControllerStats& c : p.controllerStats) {
    rowHit += c.rowHitRatio() * static_cast<double>(c.requests);
    wait += c.meanWait() * static_cast<double>(c.requests);
    requests += c.requests;
  }
  const double denom = requests == 0 ? 1.0 : static_cast<double>(requests);
  row.push_back(fmt(100.0 * util, 1) + "%");
  row.push_back(fmt(100.0 * rowHit / denom, 1) + "%");
  row.push_back(fmt(wait / denom, 1));
}

void printFigThree(const Runs& runs, const Machine& machine, Claims& claims) {
  printHeading("Fig. 3 — CG.C on " + machine.spec.name);
  const auto& sweep = runs.of({machine.spec, Program::kCG, ProblemClass::kC});
  TextTable table;
  table.header({"cores", "total [1e9]", "stall [1e9]", "work [1e9]",
                "LLC misses [1e6]", "coherence [1e3]", "omega", "util",
                "row-hit", "wait [cyc]"});
  const auto scaled = [](std::uint64_t value, double unit, int digits) {
    return fmt(static_cast<double>(value) / unit, digits);
  };
  for (const perf::RunProfile& p : sweep.profiles) {
    std::vector<std::string> row = {
        std::to_string(p.activeCores), scaled(p.counters.totalCycles, 1e9, 3),
        scaled(p.counters.stallCycles, 1e9, 3),
        scaled(p.counters.workCycles(), 1e9, 3),
        scaled(p.counters.llcMisses, 1e6, 2), scaled(p.coherenceMisses, 1e3, 1),
        fmt(omegaAt(sweep, p.activeCores))};
    appendObsCells(p, row);
    table.row(std::move(row));
  }
  std::printf("%s", table.str().c_str());

  // Bands are PaperPipeline.WorkCyclesAndMissesRoughlyConstant's.
  const std::string at = "@" + machine.token;
  const perf::CounterSet& first = sweep.profiles.front().counters;
  const perf::CounterSet& last = sweep.profiles.back().counters;
  const double stallShare =
      (static_cast<double>(last.stallCycles) -
       static_cast<double>(first.stallCycles)) /
      (static_cast<double>(last.totalCycles) -
       static_cast<double>(first.totalCycles));
  claims.push_back({"fig3.stall_share" + at, "~100%", pct(stallShare), ">= 90%",
                    stallShare >= 0.9});
  claims.push_back({"fig3.work_change" + at, "~0%",
                    pct(static_cast<double>(last.workCycles()) /
                            static_cast<double>(first.workCycles()) - 1.0),
                    "0%", last.workCycles() == first.workCycles()});
  const double missRatio = static_cast<double>(last.llcMisses) /
                           static_cast<double>(first.llcMisses);
  claims.push_back({"fig3.llc_change" + at, "insignificant",
                    pct(missRatio - 1.0), "-40%..+60%",
                    missRatio > 0.6 && missRatio < 1.6});

  // A dip in C(n) as each further NUMA memory controller comes online.
  const model::MachineShape shape = model::shapeOf(machine.spec);
  for (int p = 1; shape.architecture == topology::MemoryArchitecture::kNuma &&
                  p < shape.processors;
       ++p) {
    const int n = p * shape.coresPerProcessor + 1;
    const double ratio =
        sweep.at(n).totalCyclesD() / sweep.at(n - 1).totalCyclesD();
    claims.push_back({"fig3.dip_n" + std::to_string(n) + at,
                      "C(" + std::to_string(n) + ") < C(" +
                          std::to_string(n - 1) + ")",
                      "ratio " + fmt(ratio, 3), "< 1", ratio < 1.0});
  }
}

// ---------------------------------------------------------------- Fig. 4

const std::vector<ProblemClass> kCgClasses = {
    ProblemClass::kS, ProblemClass::kW, ProblemClass::kA, ProblemClass::kB,
    ProblemClass::kC};
const std::vector<ProblemClass> kX264Inputs = {
    ProblemClass::kSimSmall, ProblemClass::kSimMedium, ProblemClass::kSimLarge,
    ProblemClass::kNative};

/// Prints one Fig. 4 / Table III block and returns its report.
model::BurstinessReport printBurstiness(const Runs& runs,
                                        const MachineSpec& machine,
                                        Program program, ProblemClass cls) {
  const int cores = machine.logicalCores();
  const model::BurstinessReport report = model::analyzeBurstiness(
      runs.of(sampled(machine, program, cls)).at(cores).missWindows);
  std::printf("\n%-14s %s\n", workloads::workloadName(program, cls).c_str(),
              workloads::makeWorkload({program, cls, cores})
                  .sizeDescription.c_str());
  std::printf("  windows: %llu total, %llu active (idle fraction %.3f)\n",
              static_cast<unsigned long long>(report.totalWindows),
              static_cast<unsigned long long>(report.activeWindows),
              report.idleFraction);
  if (report.activeWindows == 0) {
    std::printf("  no off-chip traffic at all\n");
    return report;
  }
  std::printf("  burst size: mean %.1f, max %.0f, cv %.2f\n", report.meanBurst,
              report.maxBurst, report.cv);
  std::printf("  log-log tail: slope %.2f, R^2 %.3f over %zu points\n",
              report.tail.slope, report.tail.r2, report.tail.points);
  std::printf("  classification: %s\n",
              report.bursty ? "BURSTY (long-tailed)" : "NON-BURSTY (saturated)");
  std::printf("  P(BurstSize > x):");
  for (const stats::CcdfPoint& point : report.ccdf) {
    if (point.probability > 0.0) {
      std::printf("  %g:%.1e", point.x, point.probability);
    }
  }
  std::printf("\n");
  return report;
}

void printFigFour(const Runs& runs, const MachineSpec& numa, Claims& claims) {
  printHeading(
      "Fig. 4(a) — burstiness of CG across problem sizes (Intel NUMA, "
      "24 threads / 24 cores)");
  for (const ProblemClass cls : kCgClasses) {
    const model::BurstinessReport r =
        printBurstiness(runs, numa, Program::kCG, cls);
    const bool small = cls == ProblemClass::kS || cls == ProblemClass::kW;
    if (cls != ProblemClass::kA) {  // A is the paper's transition class
      claims.push_back(
          {"fig4." + workloads::workloadName(Program::kCG, cls),
           small ? "bursty (long tail)" : "not bursty (saturated)",
           std::string(r.bursty ? "bursty" : "not bursty") + " (cv " +
               fmt(r.cv) + ", max/mean " + fmt(r.maxBurst / r.meanBurst, 1) +
               ")",
           small ? "bursty" : "not bursty", r.bursty == small});
    }
  }

  printHeading("Fig. 4(b) — burstiness of x264 across inputs");
  int simBursty = 0;
  for (const ProblemClass cls : kX264Inputs) {
    const bool bursty = printBurstiness(runs, numa, Program::kX264, cls).bursty;
    simBursty += bursty && cls != ProblemClass::kNative ? 1 : 0;
  }
  claims.push_back({"fig4.x264.sim_bursty", "sim* inputs bursty",
                    std::to_string(simBursty) + " of 3 bursty", "3 of 3",
                    simBursty == 3});
}

// ---------------------------------------------------------------- Figs. 5, 6

/// Fig. 5 for one machine; returns the model's mean relative error.
double printFigFive(const Runs& runs, const Machine& machine, Claims& claims) {
  printHeading("Fig. 5 — CG.C model vs. measurement on " + machine.spec.name);
  const auto& sweep = runs.of({machine.spec, Program::kCG, ProblemClass::kC});
  const model::MachineShape shape = model::shapeOf(machine.spec);
  const auto fitCores = model::defaultFitCores(shape);
  std::printf("regression inputs: C(n) at n =");
  for (int n : fitCores) {
    std::printf(" %d", n);
  }
  std::printf("\n\n");

  const model::ContentionModel m =
      fitOrExit(shape, analysis::pointsAt(sweep, fitCores));
  const model::ValidationReport report = model::validate(m, sweep.points());
  TextTable table;
  table.header({"cores", "omega measured", "omega model", "rel. error"});
  for (const model::ValidationRow& row : report.rows) {
    table.row({std::to_string(row.cores), fmt(row.measuredOmega),
               fmt(row.predictedOmega), pct(row.relativeError)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nsingle-processor fit: mu/r = %.3e, L/r = %.3e, R^2 = %.3f, "
              "saturation at n = %.1f\n",
              m.singleProcessor().muOverR(), m.singleProcessor().lOverR(),
              m.singleProcessor().fitInfo().r2,
              m.singleProcessor().saturationCores());
  claims.push_back({"fig5.error@" + machine.token, "5-14% average",
                    pct(report.meanRelativeError), "<= 14%",
                    report.meanRelativeError <= 0.14});

  // The paper's homogeneous-interconnect degradation on AMD.
  if (shape.processors > 2) {
    model::ContentionModel::Options homogeneous;
    homogeneous.homogeneousRemote = true;
    const auto threePoints = analysis::pointsAt(
        sweep, {1, shape.coresPerProcessor, shape.coresPerProcessor + 1});
    const double error =
        model::validate(fitOrExit(shape, threePoints, homogeneous),
                        sweep.points())
            .meanRelativeError;
    claims.push_back({"fig5.homogeneous_error@" + machine.token,
                      "degrades to ~25%", pct(error), ">= 25%", error >= 0.25});
  }
  return report.meanRelativeError;
}

void printFigSix(const Runs& runs, const Machine& machine, double cgError,
                 Claims& claims) {
  printHeading("Fig. 6 — EP.C model vs. measurement on " + machine.spec.name);
  const auto& sweep = runs.of({machine.spec, Program::kEP, ProblemClass::kC});
  const model::MachineShape shape = model::shapeOf(machine.spec);
  const model::ValidationReport report = model::validate(
      fitOrExit(shape, analysis::pointsAt(sweep, model::defaultFitCores(shape))),
      sweep.points());
  TextTable table;
  table.header({"cores", "omega measured", "omega model", "LLC misses",
                "coherence misses"});
  for (const model::ValidationRow& row : report.rows) {
    const perf::RunProfile& p = sweep.at(row.cores);
    table.row({std::to_string(row.cores), fmt(row.measuredOmega),
               fmt(row.predictedOmega), std::to_string(p.counters.llcMisses),
               std::to_string(p.coherenceMisses)});
  }
  std::printf("%s", table.str().c_str());

  const std::string at = "@" + machine.token;
  claims.push_back({"fig6.error_above_cg" + at, "model least accurate for EP",
                    pct(report.meanRelativeError) + " vs CG.C " + pct(cgError),
                    "> CG.C's", report.meanRelativeError > cgError});
  // The violated model assumption: EP's misses grow with active cores.
  const auto first = sweep.profiles.front().counters.llcMisses;
  const auto last = sweep.profiles.back().counters.llcMisses;
  claims.push_back({"fig6.llc_growth" + at,
                    machine.token == "intel-numa24" ? "1.8e3 -> 3.1e7" : "grows",
                    std::to_string(first) + " -> " + std::to_string(last),
                    "misses(full) > misses(1)", last > first});
}

// ---------------------------------------------------------------- Table IV

const std::vector<Program> kTableFourPrograms = {
    Program::kEP, Program::kIS, Program::kFT,
    Program::kCG, Program::kSP, Program::kX264};

struct PaperR2 {
  const char* program;
  double values[3];  // UMA, NUMA, AMD
};

constexpr PaperR2 kPaperR2[] = {
    {"EP.C", {0.86, 0.91, 0.90}},   {"IS.C", {0.97, 0.98, 0.99}},
    {"FT.B/C", {1.00, 0.99, 1.00}}, {"CG.C", {0.96, 0.94, 0.97}},
    {"SP.C", {0.97, 0.96, 0.99}},   {"x264.native", {0.87, 0.85, 0.81}},
};

void printTableFour(const Runs& runs, const std::vector<Machine>& machines,
                    Claims& claims) {
  printHeading(
      "Table IV — colinearity goodness-of-fit R^2 of 1/C(n) "
      "(n = 1..4 on UMA, 1..12 on NUMA)");
  TextTable table;
  table.header({"Program", "UMA R^2", "(paper)", "NUMA R^2", "(paper)",
                "AMD R^2", "(paper)"});
  std::vector<std::vector<double>> r2(machines.size());  // [machine][program]
  for (std::size_t i = 0; i < kTableFourPrograms.size(); ++i) {
    const Program program = kTableFourPrograms[i];
    std::vector<std::string> row{kPaperR2[i].program};
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      const MachineSpec& m = machines[mi].spec;
      const auto& sweep = runs.of({m, program, largeClassFor(program, m)});
      r2[mi].push_back(model::colinearityR2(
          analysis::pointsAt(sweep, tableFourCores(m))));
      row.push_back(fmt(r2[mi].back(), 3));
      row.push_back(fmt(kPaperR2[i].values[mi], 2));
    }
    table.row(std::move(row));
  }
  std::printf("\n%s", table.str().c_str());

  // High contention (IS, FT, CG, SP) against low (EP, x264). The paper's
  // high-contention R^2 is 0.94-1.00; the band is
  // PaperPipeline.Table4OrderingHighContentionIsMoreColinear's 0.85.
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const std::vector<double>& r = r2[mi];
    const auto high = static_cast<std::size_t>(
        std::min_element(r.begin() + 1, r.begin() + 5) - r.begin());
    const std::size_t low = r[0] >= r[5] ? 0 : 5;
    const std::string worst =
        std::string(kPaperR2[high].program) + " " + fmt(r[high], 3);
    const std::string at = "@" + machines[mi].token;
    claims.push_back({"table4.high_r2" + at, "0.94-1.00", "min " + worst,
                      "> 0.85", r[high] > 0.85});
    claims.push_back({"table4.correlation" + at, "EP, x264 fit worst",
                      "min high " + worst + ", max low " +
                          kPaperR2[low].program + " " + fmt(r[low], 3),
                      "min high > max low", r[high] > r[low]});
  }
}

// ---------------------------------------------------------------- Ablation

/// The ablation rows: CG.C on Intel NUMA with one memory-system design
/// choice changed (the paper lists these as model extensions in its
/// section VI); each row's variant is its label. Metric: omega at full
/// cores.
std::vector<Setup> ablationRows(const MachineSpec& base) {
  std::vector<Setup> rows;
  const auto row = [&](const std::string& label) -> Setup& {
    rows.push_back({base, Program::kCG, ProblemClass::kC, {}, label});
    return rows.back();
  };
  // Memory channels per controller (Sancho et al.'s trade-off).
  for (const int channels : {1, 2, 6}) {
    row("channels per controller = " + std::to_string(channels))
        .machine.channelsPerController = channels;
  }
  row("deterministic DRAM service (M/D/1-like)").sim.memory.service =
      mem::ServiceDiscipline::kDeterministic;
  row("placement = local (no remote traffic)").sim.memory.placement =
      mem::PlacementPolicy::kLocal;
  row("placement = first-touch").sim.memory.placement =
      mem::PlacementPolicy::kFirstTouch;
  row("placement = proportional (eq. 10 c/n split)").sim.memory.placement =
      mem::PlacementPolicy::kProportionalInterleave;
  // Prefetch MLP (how much stream latency cores hide).
  for (const int mlp : {1, 2, 8}) {
    row("prefetch MLP = " + std::to_string(mlp)).machine.prefetchMlp = mlp;
  }
  row("infinite interconnect bandwidth").machine.linkServiceCycles = 0;
  // Row-buffer sensitivity: no locality benefit (every access a row miss).
  MachineSpec& flat = row("no row-buffer locality (hit = miss cost)").machine;
  flat.rowHitServiceCycles = flat.rowMissServiceCycles;
  // Additional controllers (the paper's 'adding memory controllers
  // reduces the memory contention'); the last row, which a claim reads.
  MachineSpec& split = row("4 controllers (2 per socket, same cores)").machine;
  split.diesPerSocket = 2;
  split.coresPerDie = 3;
  split.controllerScope = topology::ControllerScope::kPerDie;
  split.hopMatrix = {{0, 1, 1, 2}, {1, 0, 2, 1}, {1, 2, 0, 1}, {2, 1, 1, 0}};
  split.validate();
  return rows;
}

void printAblation(const Runs& runs, const MachineSpec& base, Claims& claims) {
  printHeading(
      "Ablation — CG.C contention vs. memory-system design choices "
      "(Intel NUMA)");
  const auto report = [](const std::string& label, double omega,
                         double baseline) {
    std::printf("  %-44s omega(24) = %6.2f   (%+5.1f%% vs baseline)\n",
                label.c_str(), omega, 100.0 * (omega / baseline - 1.0));
  };
  const double baseline = omegaAt(
      runs.of({base, Program::kCG, ProblemClass::kC}), base.logicalCores());
  report("baseline (3 channels, exp. service, interleave)", baseline, baseline);
  double omega = 0.0;
  for (const Setup& row : ablationRows(base)) {
    omega = omegaAt(runs.of(row), row.machine.logicalCores());
    report(row.variant, omega, baseline);
  }
  claims.push_back({"ablation.more_controllers",
                    "more controllers reduce contention",
                    "omega(24) " + fmt(omega) + " vs " + fmt(baseline),
                    "< baseline", omega < baseline});
}

// ---------------------------------------------------------------- report

/// Declares every sweep the tables above read.
void plan(Runs& runs, const std::vector<Machine>& machines) {
  for (const Machine& m : machines) {
    const int full = m.spec.logicalCores();
    for (const Program program : kDwarfs) {  // Table II
      for (const ProblemClass cls :
           {ProblemClass::kW, largeClassFor(program, m.spec)}) {
        runs.need({m.spec, program, cls}, {1, full / 2, full});
      }
    }
    for (const Program program : {Program::kCG, Program::kEP}) {  // Figs. 3-6
      runs.need({m.spec, program, ProblemClass::kC}, coresUpTo(full));
    }
    for (const Program program : kTableFourPrograms) {
      runs.need({m.spec, program, largeClassFor(program, m.spec)},
                tableFourCores(m.spec));
    }
  }
  const MachineSpec& numa = machines[1].spec;
  for (const ProblemClass cls : kCgClasses) {  // Fig. 4
    runs.need(sampled(numa, Program::kCG, cls), {numa.logicalCores()});
  }
  for (const ProblemClass cls : kX264Inputs) {
    runs.need(sampled(numa, Program::kX264, cls), {numa.logicalCores()});
  }
  for (const Setup& row : ablationRows(numa)) {
    runs.need(row, {1, row.machine.logicalCores()});
  }
}

/// Prints the claim list; returns the ids whose verdict differs from the
/// expected one.
std::vector<std::string> printClaims(const Claims& claims) {
  printHeading("Claims — paper vs. measured, with the band each must meet");
  TextTable table;
  table.header({"claim", "paper", "measured", "band", "verdict"});
  std::vector<std::string> unexpected;
  std::size_t deviations = 0;
  for (const Claim& claim : claims) {
    const bool known = kKnownDeviations.count(claim.id) != 0;
    std::string verdict = claim.holds ? "holds" : "deviates";
    if (claim.holds == known) {
      verdict += known ? " (expected: known deviation)" : " (expected: holds)";
      unexpected.push_back(claim.id);
    } else if (known) {
      verdict += " (known)";
      ++deviations;
    }
    table.row({claim.id, claim.paper, claim.measured, claim.band, verdict});
  }
  std::printf("%s\n%zu claims: %zu hold, %zu known deviations, %zu unexpected\n",
              table.str().c_str(), claims.size(),
              claims.size() - deviations - unexpected.size(), deviations,
              unexpected.size());
  // A known deviation that no claim carries is a stale expectation.
  for (const std::string& id : kKnownDeviations) {
    if (std::none_of(claims.begin(), claims.end(),
                     [&](const Claim& c) { return c.id == id; })) {
      unexpected.push_back(id + " (no such claim)");
    }
  }
  return unexpected;
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = parseWorkers(argc, argv);
  std::printf("sweep pool size: %d\n", exec::resolveWorkerCount(workers));
  const std::vector<Machine> machines = {
      {"intel-uma8", topology::intelUma8()},
      {"intel-numa24", topology::intelNuma24()},
      {"amd-numa48", topology::amdNuma48()}};
  Runs runs;
  plan(runs, machines);
  runs.runAll(workers);

  Claims claims;
  printTableTwo(runs, machines, claims);
  for (const Machine& m : machines) {
    printFigThree(runs, m, claims);
  }
  printFigFour(runs, machines[1].spec, claims);
  std::vector<double> cgErrors;
  for (const Machine& m : machines) {
    cgErrors.push_back(printFigFive(runs, m, claims));
  }
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    printFigSix(runs, machines[mi], cgErrors[mi], claims);
  }
  printTableFour(runs, machines, claims);
  printAblation(runs, machines[1].spec, claims);

  const std::vector<std::string> unexpected = printClaims(claims);
  for (const std::string& id : unexpected) {
    std::fprintf(stderr, "error: claim %s: verdict differs from its "
                         "expectation\n", id.c_str());
  }
  return unexpected.empty() ? 0 : 1;
}
