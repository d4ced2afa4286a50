#include "analysis/lifecycle_export.hpp"

#include <algorithm>

#include "obs/chrome_trace.hpp"

namespace occm::analysis {

obs::RunTracePtr lifecycleTrace(const SweepResult& sweep) {
  // One metric window and a clock of 1 GHz: lifecycle "time" is request
  // order for failure instants and coordinator milliseconds for lease
  // spans, so the units only need to be stable, not physical.
  Cycles end = static_cast<Cycles>(
      sweep.failures.size() == 0 ? 1 : sweep.failures.size());
  for (const exec::dist::LeaseSpan& span : sweep.dist.leaseSpans) {
    end = std::max(end, static_cast<Cycles>(span.endMs));
  }
  auto trace = std::make_shared<obs::RunTrace>(
      end, sweep.failures.size() + sweep.dist.leaseSpans.size() + 16, 1.0);
  double exceptions = 0.0;
  double timeouts = 0.0;
  double cancelled = 0.0;
  double crashes = 0.0;
  double workerLost = 0.0;
  double handshakes = 0.0;
  double frameCorrupt = 0.0;
  for (std::size_t i = 0; i < sweep.failures.size(); ++i) {
    const RunFailure& f = sweep.failures[i];
    trace->events.setTrackName(f.cores, "n = " + std::to_string(f.cores));
    std::string label = std::string(toString(f.kind)) +
                        (f.recovered ? " (recovered)" : "");
    if (f.kind == RunFailureKind::kCrash) {
      // Crash records carry their forensics inline: signal, the limit
      // that explains the death, and whether a stderr tail was captured.
      label += " [signal " + std::to_string(f.signal);
      if (!f.rlimit.empty()) {
        label += ", rlimit " + f.rlimit;
      }
      label += f.stderrTail.empty() ? ", no stderr tail]" : ", stderr tail]";
    }
    if (!f.worker.empty()) {
      // Fleet incidents name the worker involved (worker-lost instants).
      label += " [worker " + f.worker + "]";
    }
    trace->events.instant(label + ": " + f.error, "lifecycle", f.cores,
                          static_cast<Cycles>(i));
    switch (f.kind) {
      case RunFailureKind::kException: exceptions += 1.0; break;
      case RunFailureKind::kTimeout: timeouts += 1.0; break;
      case RunFailureKind::kCancelled: cancelled += 1.0; break;
      case RunFailureKind::kCrash: crashes += 1.0; break;
      case RunFailureKind::kWorkerLost: workerLost += 1.0; break;
      case RunFailureKind::kHandshake: handshakes += 1.0; break;
      case RunFailureKind::kFrameCorrupt: frameCorrupt += 1.0; break;
    }
  }
  // One span per lease (granted .. closed), on the task's request-order
  // track: re-dispatch chains and speculative duplicates render as
  // stacked intervals per task id in the Chrome timeline.
  for (const exec::dist::LeaseSpan& span : sweep.dist.leaseSpans) {
    const std::int32_t track = static_cast<std::int32_t>(span.taskId);
    trace->events.setTrackName(track,
                               "task " + std::to_string(span.taskId));
    const Cycles start = static_cast<Cycles>(span.startMs);
    const Cycles finish = static_cast<Cycles>(std::max(
        span.endMs, span.startMs + 1));  // zero-width spans are invisible
    trace->events.span("lease " + span.worker + " (" + span.outcome + ")",
                       "lease", track, start, finish - start);
  }
  trace->metrics.gauge("sweep.failures.exception", "runs")
      .record(0, exceptions);
  trace->metrics.gauge("sweep.failures.timeout", "runs").record(0, timeouts);
  trace->metrics.gauge("sweep.failures.cancelled", "runs")
      .record(0, cancelled);
  trace->metrics.gauge("sweep.failures.crash", "runs").record(0, crashes);
  trace->metrics.gauge("sweep.failures.worker_lost", "runs")
      .record(0, workerLost);
  trace->metrics.gauge("sweep.failures.handshake", "runs")
      .record(0, handshakes);
  trace->metrics.gauge("sweep.failures.frame_corrupt", "runs")
      .record(0, frameCorrupt);
  if (sweep.dist.used) {
    const exec::dist::LeaseStats& leases = sweep.dist.leases;
    trace->metrics.gauge("dist.workers.seen", "workers")
        .record(0, static_cast<double>(sweep.dist.workersSeen));
    trace->metrics.gauge("dist.leases.expired", "leases")
        .record(0, static_cast<double>(leases.leasesExpired));
    trace->metrics.gauge("dist.redispatches", "tasks")
        .record(0, static_cast<double>(leases.redispatches));
    trace->metrics.gauge("dist.leases.speculative", "leases")
        .record(0, static_cast<double>(leases.speculativeLeases));
    trace->metrics.gauge("dist.duplicates.discarded", "results")
        .record(0, static_cast<double>(leases.duplicatesDiscarded));
  }
  trace->metrics.finalize(end);
  return trace;
}

std::string lifecycleToChromeTraceJson(const SweepResult& sweep) {
  return obs::toChromeTraceJson(*lifecycleTrace(sweep));
}

}  // namespace occm::analysis
