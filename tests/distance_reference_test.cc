// Cross-validation of every DP distance metric against an independent
// naive recursive (memoized) implementation written directly from the
// textbook recurrences / the paper's Eqs. 1-3. Any indexing or rolling-
// buffer bug in the production DPs shows up here. Each naive recurrence
// does the same arithmetic per cell as the production DP (ERP in its
// prefix form), so for finite coordinates the two agree bit for bit; the
// suffix form of Eq. 1 sums in another order and is only checked to 1e-9.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/erp.h"
#include "distance/frechet.h"
#include "distance/hausdorff.h"
#include "distance/lcss.h"
#include "geo/preprocess.h"

namespace tmn::dist {
namespace {

using geo::EuclideanDistance;
using geo::Point;
using geo::Trajectory;

// Memoized recurrence values of one trajectory pair, one per cell (i, j);
// NaN marks a cell not computed yet (no recurrence here yields NaN).
class Memo {
 public:
  Memo(size_t rows, size_t cols)
      : cols_(cols),
        cells_(rows * cols, std::numeric_limits<double>::quiet_NaN()) {}
  double& at(size_t i, size_t j) { return cells_[i * cols_ + j]; }

 private:
  size_t cols_;
  std::vector<double> cells_;
};

::testing::AssertionResult SameBits(double actual, double expected) {
  if (std::bit_cast<uint64_t>(actual) == std::bit_cast<uint64_t>(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << actual << " differs from the naive "
         << expected;
}

double NaiveDtw(const Trajectory& a, const Trajectory& b, int i, int j,
                Memo& memo) {
  if (i < 0 || j < 0) return 1e300;
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  const double cost = EuclideanDistance(a[i], b[j]);
  double value;
  if (i == 0 && j == 0) {
    value = cost;
  } else {
    value = cost + std::min({NaiveDtw(a, b, i - 1, j, memo),
                             NaiveDtw(a, b, i, j - 1, memo),
                             NaiveDtw(a, b, i - 1, j - 1, memo)});
  }
  cell = value;
  return value;
}

double NaiveFrechet(const Trajectory& a, const Trajectory& b, int i, int j,
                    Memo& memo) {
  if (i < 0 || j < 0) return 1e300;
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  const double cost = EuclideanDistance(a[i], b[j]);
  double value;
  if (i == 0 && j == 0) {
    value = cost;
  } else {
    value = std::max(cost, std::min({NaiveFrechet(a, b, i - 1, j, memo),
                                     NaiveFrechet(a, b, i, j - 1, memo),
                                     NaiveFrechet(a, b, i - 1, j - 1,
                                                  memo)}));
  }
  cell = value;
  return value;
}

// Paper Eq. 1, written on suffixes: i/j are the first unconsumed indices.
double NaiveErp(const Trajectory& a, const Trajectory& b, size_t i,
                size_t j, const Point& gap, Memo& memo) {
  if (i == a.size() && j == b.size()) return 0.0;
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  double value = 1e300;
  if (i < a.size()) {
    value = std::min(value, NaiveErp(a, b, i + 1, j, gap, memo) +
                                EuclideanDistance(a[i], gap));
  }
  if (j < b.size()) {
    value = std::min(value, NaiveErp(a, b, i, j + 1, gap, memo) +
                                EuclideanDistance(b[j], gap));
  }
  if (i < a.size() && j < b.size()) {
    value = std::min(value, NaiveErp(a, b, i + 1, j + 1, gap, memo) +
                                EuclideanDistance(a[i], b[j]));
  }
  cell = value;
  return value;
}

// Eq. 1 on prefixes: i/j are the numbers of consumed points, and each cell
// takes the minimum of the same three sums as the rolling DP.
double NaivePrefixErp(const Trajectory& a, const Trajectory& b, size_t i,
                      size_t j, const Point& gap, Memo& memo) {
  if (i == 0 && j == 0) return 0.0;
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  double value;
  if (i == 0) {
    value = NaivePrefixErp(a, b, 0, j - 1, gap, memo) +
            EuclideanDistance(b[j - 1], gap);
  } else if (j == 0) {
    value = NaivePrefixErp(a, b, i - 1, 0, gap, memo) +
            EuclideanDistance(a[i - 1], gap);
  } else {
    value = std::min({NaivePrefixErp(a, b, i - 1, j - 1, gap, memo) +
                          EuclideanDistance(a[i - 1], b[j - 1]),
                      NaivePrefixErp(a, b, i - 1, j, gap, memo) +
                          EuclideanDistance(a[i - 1], gap),
                      NaivePrefixErp(a, b, i, j - 1, gap, memo) +
                          EuclideanDistance(b[j - 1], gap)});
  }
  cell = value;
  return value;
}

double NaiveEdr(const Trajectory& a, const Trajectory& b, size_t i,
                size_t j, double eps, Memo& memo) {
  if (i == a.size()) return static_cast<double>(b.size() - j);
  if (j == b.size()) return static_cast<double>(a.size() - i);
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  const double subcost = EuclideanDistance(a[i], b[j]) <= eps ? 0.0 : 1.0;
  const double value =
      std::min({NaiveEdr(a, b, i + 1, j + 1, eps, memo) + subcost,
                NaiveEdr(a, b, i + 1, j, eps, memo) + 1.0,
                NaiveEdr(a, b, i, j + 1, eps, memo) + 1.0});
  cell = value;
  return value;
}

double NaiveLcss(const Trajectory& a, const Trajectory& b, size_t i,
                 size_t j, double eps, Memo& memo) {
  if (i == a.size() || j == b.size()) return 0.0;
  double& cell = memo.at(i, j);
  if (!std::isnan(cell)) return cell;
  double value;
  if (EuclideanDistance(a[i], b[j]) <= eps) {
    value = 1.0 + NaiveLcss(a, b, i + 1, j + 1, eps, memo);
  } else {
    value = std::max(NaiveLcss(a, b, i + 1, j, eps, memo),
                     NaiveLcss(a, b, i, j + 1, eps, memo));
  }
  cell = value;
  return value;
}

double NaiveHausdorff(const Trajectory& a, const Trajectory& b) {
  const auto directed = [](const Trajectory& x, const Trajectory& y) {
    double worst = 0.0;
    for (const Point& p : x) {
      double best = 1e300;
      for (const Point& q : y) {
        best = std::min(best, EuclideanDistance(p, q));
      }
      worst = std::max(worst, best);
    }
    return worst;
  };
  return std::max(directed(a, b), directed(b, a));
}

std::vector<Trajectory> Normalized(data::SyntheticKind kind, int count,
                                   int min_length, int max_length,
                                   uint64_t seed) {
  data::SyntheticConfig config;
  config.kind = kind;
  config.num_trajectories = count;
  config.min_length = min_length;
  config.max_length = max_length;
  config.seed = seed;
  auto raw = data::GenerateSynthetic(config);
  return geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
}

class ReferenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    // Short trajectories, a single point, and serving-sized Geolife-like
    // and Porto-like ones, each pair compared in both argument orders.
    trajs_ = Normalized(data::SyntheticKind::kPortoLike, 6, 2, 9, GetParam());
    trajs_.push_back(trajs_[0].Prefix(1));
    for (const data::SyntheticKind kind : {data::SyntheticKind::kGeolifeLike,
                                           data::SyntheticKind::kPortoLike}) {
      for (Trajectory& t : Normalized(kind, 2, 60, 160, GetParam() + 100)) {
        trajs_.push_back(std::move(t));
      }
    }
  }

  // Calls `check(a, b)` on every ordered pair of the fixture.
  template <typename Check>
  void ForEachPair(Check check) const {
    for (size_t i = 0; i < trajs_.size(); ++i) {
      for (size_t j = 0; j < trajs_.size(); ++j) {
        SCOPED_TRACE(::testing::Message() << "pair (" << i << ", " << j
                                          << ")");
        check(trajs_[i], trajs_[j]);
      }
    }
  }

  std::vector<Trajectory> trajs_;
};

TEST_P(ReferenceTest, DtwMatchesNaive) {
  DtwMetric metric;
  ForEachPair([&](const Trajectory& a, const Trajectory& b) {
    Memo memo(a.size(), b.size());
    const double expected = NaiveDtw(a, b, static_cast<int>(a.size()) - 1,
                                     static_cast<int>(b.size()) - 1, memo);
    EXPECT_TRUE(SameBits(metric.Compute(a, b), expected));
  });
}

TEST_P(ReferenceTest, FrechetMatchesNaive) {
  FrechetMetric metric;
  ForEachPair([&](const Trajectory& a, const Trajectory& b) {
    Memo memo(a.size(), b.size());
    const double expected =
        NaiveFrechet(a, b, static_cast<int>(a.size()) - 1,
                     static_cast<int>(b.size()) - 1, memo);
    EXPECT_TRUE(SameBits(metric.Compute(a, b), expected));
  });
}

TEST_P(ReferenceTest, ErpMatchesNaive) {
  for (const Point gap : {Point{0.0, 0.0}, Point{0.3, 0.7}}) {
    ErpMetric metric(gap);
    ForEachPair([&](const Trajectory& a, const Trajectory& b) {
      const double actual = metric.Compute(a, b);
      Memo prefix_memo(a.size() + 1, b.size() + 1);
      EXPECT_TRUE(SameBits(
          actual, NaivePrefixErp(a, b, a.size(), b.size(), gap, prefix_memo)));
      Memo suffix_memo(a.size() + 1, b.size() + 1);
      EXPECT_NEAR(actual, NaiveErp(a, b, 0, 0, gap, suffix_memo), 1e-9);
    });
  }
}

TEST_P(ReferenceTest, EdrMatchesNaive) {
  for (double eps : {0.005, 0.02, 0.1}) {
    EdrMetric metric(eps);
    ForEachPair([&](const Trajectory& a, const Trajectory& b) {
      Memo memo(a.size(), b.size());
      EXPECT_TRUE(
          SameBits(metric.Compute(a, b), NaiveEdr(a, b, 0, 0, eps, memo)));
    });
  }
}

TEST_P(ReferenceTest, LcssMatchesNaive) {
  for (double eps : {0.005, 0.02, 0.1}) {
    LcssMetric metric(eps);
    ForEachPair([&](const Trajectory& a, const Trajectory& b) {
      Memo memo(a.size(), b.size());
      const double expected = NaiveLcss(a, b, 0, 0, eps, memo);
      EXPECT_TRUE(SameBits(static_cast<double>(metric.LcssLength(a, b)),
                           expected));
      const double shorter = static_cast<double>(std::min(a.size(), b.size()));
      EXPECT_TRUE(SameBits(metric.Compute(a, b), 1.0 - expected / shorter));
    });
  }
}

TEST_P(ReferenceTest, HausdorffMatchesNaive) {
  HausdorffMetric metric;
  ForEachPair([&](const Trajectory& a, const Trajectory& b) {
    EXPECT_NEAR(metric.Compute(a, b), NaiveHausdorff(a, b), 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tmn::dist
