#include "analysis/advisor.hpp"

#include <string>

#include "analysis/experiment.hpp"

namespace occm::analysis {

Expected<AdvisorModel, model::FitError> fitAdvisorModel(
    const AdvisorFitConfig& config) {
  AdvisorModel out;
  out.shape = model::shapeOf(config.machine);
  out.fitCores = model::defaultFitCores(out.shape);

  SweepConfig sweep;
  sweep.machine = config.machine;
  sweep.workload = config.workload;
  sweep.sim = config.sim;
  sweep.coreCounts = out.fitCores;
  sweep.maxAttempts = config.maxAttempts;
  sweep.parallel.workers = config.workers;
  sweep.cancel = config.cancel;
  sweep.beforeRun = config.beforeRun;

  const SweepResult result = runSweep(sweep);
  if (result.stopped) {
    return makeUnexpected(model::FitError{
        model::FitErrorKind::kTooFewPoints,
        "fit sweep cancelled with " + std::to_string(result.profiles.size()) +
            " of " + std::to_string(out.fitCores.size()) +
            " measurements completed",
        0});
  }
  out.measuredRuns = result.profiles.size();

  auto fitted = model::ContentionModel::tryFit(out.shape, result.points());
  if (!fitted) {
    model::FitError error = fitted.error();
    // Name the runs that never completed: a permanently failed measurement
    // is the usual cause of a too-few-points / missing-anchor diagnosis.
    const std::vector<int> pending = result.pendingCoreCounts();
    if (!pending.empty()) {
      error.message += " (unmeasured core counts:";
      for (int n : pending) {
        error.message += " " + std::to_string(n);
      }
      error.message += ")";
    }
    return makeUnexpected(error);
  }
  out.model = *fitted;
  return out;
}

}  // namespace occm::analysis
