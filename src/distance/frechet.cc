#include "distance/frechet.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace tmn::dist {

double FrechetMetric::Compute(const geo::Trajectory& a,
                              const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  // dp[j] = discrete Fréchet of a[..i] vs b[..j]; rolling rows. As in DTW,
  // the cell to the left stays in `left` and min(prev[j], prev[j-1]) is
  // formed off the loop-carried chain.
  std::vector<double> prev(n, 0.0);
  std::vector<double> curr(n, 0.0);
  double left = geo::EuclideanDistance(a[0], b[0]);
  prev[0] = left;
  for (size_t j = 1; j < n; ++j) {
    left = std::max(left, geo::EuclideanDistance(a[0], b[j]));
    prev[j] = left;
  }
  for (size_t i = 1; i < m; ++i) {
    const geo::Point& p = a[i];
    left = std::max(prev[0], geo::EuclideanDistance(p, b[0]));
    curr[0] = left;
    for (size_t j = 1; j < n; ++j) {
      const double d = geo::EuclideanDistance(p, b[j]);
      left = std::max(std::min(left, std::min(prev[j], prev[j - 1])), d);
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n - 1];
}

}  // namespace tmn::dist
