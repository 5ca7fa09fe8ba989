#include "distance/dtw.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "nn/kernels/kernels.h"

namespace tmn::dist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double DtwMetric::Compute(const geo::Trajectory& a,
                          const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  return nn::kernels::Active().dtw(PointCoordinates(a), a.size(),
                                   PointCoordinates(b), b.size());
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
