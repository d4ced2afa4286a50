#include "stats/distribution.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "stats/regression.hpp"

namespace occm::stats {

std::vector<CcdfPoint> empiricalCcdf(std::span<const double> samples) {
  OCCM_REQUIRE_MSG(!samples.empty(), "CCDF of an empty sample set");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::vector<CcdfPoint> out;
  out.reserve(sorted.size());
  std::size_t i = 0;
  while (i < sorted.size()) {
    const double x = sorted[i];
    // Advance over duplicates; P(X > x) counts strictly greater samples.
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == x) {
      ++j;
    }
    out.push_back({x, static_cast<double>(sorted.size() - j) / n});
    i = j;
  }
  return out;
}

std::vector<CcdfPoint> ccdfAt(std::span<const double> samples,
                              std::span<const double> grid) {
  OCCM_REQUIRE_MSG(!samples.empty(), "CCDF of an empty sample set");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::vector<CcdfPoint> out;
  out.reserve(grid.size());
  for (double x : grid) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    const auto greater = static_cast<double>(sorted.end() - it);
    out.push_back({x, greater / n});
  }
  return out;
}

TailFit fitLogLogTail(std::span<const CcdfPoint> ccdf, double xmin) {
  std::vector<Point> pts;
  for (const CcdfPoint& p : ccdf) {
    if (p.x >= xmin && p.x > 0.0 && p.probability > 0.0) {
      pts.push_back({std::log10(p.x), std::log10(p.probability)});
    }
  }
  TailFit fit;
  if (pts.size() < 3) {
    return fit;
  }
  const LinearFit lf = fitLinear(pts);
  fit.slope = lf.slope;
  fit.intercept = lf.intercept;
  fit.r2 = lf.r2;
  fit.points = pts.size();
  return fit;
}

double hillTailIndex(std::span<const double> samples, std::size_t k) {
  if (samples.size() < 2 || k < 2 || k > samples.size()) {
    return 0.0;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double xk = sorted[k - 1];
  if (xk <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < k; ++i) {
    acc += std::log(sorted[i] / xk);
  }
  return acc == 0.0 ? 0.0 : static_cast<double>(k - 1) / acc;
}

}  // namespace occm::stats
