#include "stats/regression.hpp"

#include "common/error.hpp"

namespace occm::stats {

LinearFit fitLinear(std::span<const Point> points) {
  OCCM_REQUIRE_MSG(points.size() >= 2, "linear fit needs at least two points");
  const auto count = static_cast<double>(points.size());
  double sx = 0.0;
  double sy = 0.0;
  for (const Point& p : points) {
    sx += p.x;
    sy += p.y;
  }
  const double mx = sx / count;
  const double my = sy / count;
  double sxx = 0.0;
  double sxy = 0.0;
  for (const Point& p : points) {
    sxx += (p.x - mx) * (p.x - mx);
    sxy += (p.x - mx) * (p.y - my);
  }
  OCCM_REQUIRE_MSG(sxx > 0.0, "linear fit needs two distinct x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double ssRes = 0.0;
  double ssTot = 0.0;
  for (const Point& p : points) {
    const double pred = fit.predict(p.x);
    ssRes += (p.y - pred) * (p.y - pred);
    ssTot += (p.y - my) * (p.y - my);
  }
  fit.r2 = ssTot == 0.0 ? 1.0 : 1.0 - ssRes / ssTot;
  fit.n = points.size();
  return fit;
}

}  // namespace occm::stats
