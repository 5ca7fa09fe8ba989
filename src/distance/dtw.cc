#include "distance/dtw.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace tmn::dist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double DtwMetric::Compute(const geo::Trajectory& a,
                          const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  // Rolling one-row DP: dp[j] holds DTW cost of a[..i] vs b[..j]. The cell
  // to the left, dp[i][j-1], stays in `left` instead of being reloaded from
  // curr[j - 1], and min(prev[j], prev[j-1]) does not depend on it, so each
  // cell waits only on one min and one add of its predecessor.
  std::vector<double> prev(n + 1, kInf);
  std::vector<double> curr(n + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    const geo::Point& p = a[i - 1];
    double left = kInf;
    curr[0] = left;
    for (size_t j = 1; j <= n; ++j) {
      const double cost = geo::EuclideanDistance(p, b[j - 1]);
      left = cost + std::min(left, std::min(prev[j], prev[j - 1]));
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

DtwAlignment ComputeDtwAlignment(const geo::Trajectory& a,
                                 const geo::Trajectory& b) {
  TMN_CHECK(!a.empty() && !b.empty());
  const size_t m = a.size();
  const size_t n = b.size();
  std::vector<std::vector<double>> dp(m + 1,
                                      std::vector<double>(n + 1, kInf));
  dp[0][0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      const double cost = geo::EuclideanDistance(a[i - 1], b[j - 1]);
      dp[i][j] = cost + std::min({dp[i - 1][j], dp[i][j - 1],
                                  dp[i - 1][j - 1]});
    }
  }
  DtwAlignment result;
  result.distance = dp[m][n];
  // Trace back the optimal warping path from (m, n) to (1, 1).
  size_t i = m;
  size_t j = n;
  while (i >= 1 && j >= 1) {
    result.matches.emplace_back(i - 1, j - 1);
    if (i == 1 && j == 1) break;
    const double diag = (i > 1 && j > 1) ? dp[i - 1][j - 1] : kInf;
    const double up = i > 1 ? dp[i - 1][j] : kInf;
    const double left = j > 1 ? dp[i][j - 1] : kInf;
    if (diag <= up && diag <= left) {
      --i;
      --j;
    } else if (up <= left) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(result.matches.begin(), result.matches.end());
  return result;
}

}  // namespace tmn::dist
