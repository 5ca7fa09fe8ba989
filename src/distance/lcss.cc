#include "distance/lcss.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace tmn::dist {

size_t LcssMetric::LcssLength(const geo::Trajectory& a,
                              const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  std::vector<size_t> prev(n + 1, 0);
  std::vector<size_t> curr(n + 1, 0);
  // As in DTW, the cell to the left stays in `left`. Column 0 is 0 in both
  // rows and never written.
  for (size_t i = 1; i <= m; ++i) {
    const geo::Point& p = a[i - 1];
    size_t left = 0;
    for (size_t j = 1; j <= n; ++j) {
      left = geo::EuclideanDistance(p, b[j - 1]) <= epsilon_
                 ? prev[j - 1] + 1
                 : std::max(prev[j], left);
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

double LcssMetric::Compute(const geo::Trajectory& a,
                           const geo::Trajectory& b) const {
  const size_t lcss = LcssLength(a, b);
  const double denom = static_cast<double>(std::min(a.size(), b.size()));
  return 1.0 - static_cast<double>(lcss) / denom;
}

}  // namespace tmn::dist
