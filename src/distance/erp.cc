#include "distance/erp.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace tmn::dist {

double ErpMetric::Compute(const geo::Trajectory& a,
                          const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  // dp[i][j] = ERP(a[..i], b[..j]); deleting a point costs its distance to
  // the gap point g. Rolling rows. gap_b[j] = d(b[j-1], g) is computed once
  // per call, not once per cell. As in DTW, the cell to the left stays in
  // `left` and only the deletion of b[j-1] waits on it.
  std::vector<double> gap_b(n + 1, 0.0);
  std::vector<double> prev(n + 1, 0.0);
  std::vector<double> curr(n + 1, 0.0);
  for (size_t j = 1; j <= n; ++j) {
    gap_b[j] = geo::EuclideanDistance(b[j - 1], gap_);
    prev[j] = prev[j - 1] + gap_b[j];
  }
  for (size_t i = 1; i <= m; ++i) {
    const geo::Point& p = a[i - 1];
    const double gap_a = geo::EuclideanDistance(p, gap_);
    double left = prev[0] + gap_a;
    curr[0] = left;
    for (size_t j = 1; j <= n; ++j) {
      const double match = prev[j - 1] + geo::EuclideanDistance(p, b[j - 1]);
      const double del_a = prev[j] + gap_a;
      left = std::min(std::min(match, del_a), left + gap_b[j]);
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

}  // namespace tmn::dist
