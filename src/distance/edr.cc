#include "distance/edr.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace tmn::dist {

double EdrMetric::Compute(const geo::Trajectory& a,
                          const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  std::vector<double> prev(n + 1, 0.0);
  std::vector<double> curr(n + 1, 0.0);
  for (size_t j = 0; j <= n; ++j) prev[j] = static_cast<double>(j);
  // As in DTW, the cell to the left stays in `left` and only the insertion
  // waits on it.
  for (size_t i = 1; i <= m; ++i) {
    const geo::Point& p = a[i - 1];
    double left = static_cast<double>(i);
    curr[0] = left;
    for (size_t j = 1; j <= n; ++j) {
      const double subcost =
          geo::EuclideanDistance(p, b[j - 1]) <= epsilon_ ? 0.0 : 1.0;
      left = std::min(std::min(prev[j - 1] + subcost, prev[j] + 1.0),
                      left + 1.0);
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

}  // namespace tmn::dist
