#pragma once

// Burstiness analysis of off-chip memory traffic (paper section III-B.2
// and Figure 4). A burst is the number of cache lines requested in one
// 5 us sampler window; traffic is *bursty* when the burst-size CCDF has a
// long (heavy) tail — log P(BurstSize > x) falling as a straight diagonal
// in log x — and *non-bursty* when the distribution concentrates around
// its mean because the memory system is saturated.

#include <cstdint>
#include <span>
#include <vector>

#include "stats/distribution.hpp"

namespace occm::model {

/// The paper's log-spaced x grid for Figure 4.
[[nodiscard]] std::vector<double> figure4Grid(double maxX = 2000.0);

struct BurstinessReport {
  std::uint64_t totalWindows = 0;
  std::uint64_t activeWindows = 0;  ///< windows with >= 1 requested line
  double meanBurst = 0.0;           ///< mean over active windows
  double maxBurst = 0.0;
  double cv = 0.0;                  ///< coefficient of variation (active)
  /// Fraction of windows with no off-chip request (idle gaps).
  double idleFraction = 0.0;
  /// Log-log tail fit of the CCDF for x >= meanBurst.
  stats::TailFit tail;
  /// Heavy-tail verdict (see isBursty for the criterion).
  bool bursty = false;
  /// CCDF evaluated on the Figure-4 grid.
  std::vector<stats::CcdfPoint> ccdf;
};

/// Classifies a sampled run. `windows` are per-window line counts
/// (perf::RunProfile::missWindows).
[[nodiscard]] BurstinessReport analyzeBurstiness(
    std::span<const std::uint64_t> windows);

/// The classification criterion, exposed for testing: traffic is bursty
/// when burst sizes are highly variable (cv > 1) or the largest burst
/// dwarfs the mean (max/mean > 8) — both absent once the memory system is
/// saturated and every window carries a near-constant load.
[[nodiscard]] bool isBursty(double cv, double maxBurst, double meanBurst);

}  // namespace occm::model
