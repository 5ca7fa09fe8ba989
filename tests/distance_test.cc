#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "distance/distance_matrix.h"
#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/erp.h"
#include "distance/frechet.h"
#include "distance/hausdorff.h"
#include "distance/lcss.h"
#include "distance/metric.h"
#include "geo/trajectory.h"

namespace tmn::dist {
namespace {

using geo::Point;
using geo::Trajectory;

Trajectory Line(std::initializer_list<Point> points) {
  return Trajectory(std::vector<Point>(points));
}

// ---- Hand-computed cases -------------------------------------------------

TEST(DtwTest, SinglePointPairs) {
  DtwMetric dtw;
  EXPECT_DOUBLE_EQ(dtw.Compute(Line({{0, 0}}), Line({{3, 4}})), 5.0);
}

TEST(DtwTest, KnownSmallCase) {
  // a = (0,0),(1,0); b = (0,0),(1,0),(2,0).
  // Optimal warp: (0,0)-(0,0), (1,0)-(1,0), (1,0)-(2,0) => 0 + 0 + 1 = 1.
  DtwMetric dtw;
  EXPECT_DOUBLE_EQ(
      dtw.Compute(Line({{0, 0}, {1, 0}}), Line({{0, 0}, {1, 0}, {2, 0}})),
      1.0);
}

TEST(DtwTest, AlignmentMatchesDistance) {
  const Trajectory a = Line({{0, 0}, {1, 0}, {2, 0}, {3, 1}});
  const Trajectory b = Line({{0, 1}, {2, 1}, {3, 0}});
  DtwMetric dtw;
  const DtwAlignment alignment = ComputeDtwAlignment(a, b);
  EXPECT_DOUBLE_EQ(alignment.distance, dtw.Compute(a, b));
  // Path endpoints and monotonicity.
  ASSERT_FALSE(alignment.matches.empty());
  EXPECT_EQ(alignment.matches.front(), (std::pair<size_t, size_t>(0, 0)));
  EXPECT_EQ(alignment.matches.back(),
            (std::pair<size_t, size_t>(a.size() - 1, b.size() - 1)));
  double total = 0.0;
  for (size_t i = 1; i < alignment.matches.size(); ++i) {
    EXPECT_GE(alignment.matches[i].first, alignment.matches[i - 1].first);
    EXPECT_GE(alignment.matches[i].second, alignment.matches[i - 1].second);
    const size_t di =
        alignment.matches[i].first - alignment.matches[i - 1].first;
    const size_t dj =
        alignment.matches[i].second - alignment.matches[i - 1].second;
    EXPECT_LE(di, 1u);
    EXPECT_LE(dj, 1u);
    EXPECT_GE(di + dj, 1u);
  }
  for (const auto& [i, j] : alignment.matches) {
    total += geo::EuclideanDistance(a[i], b[j]);
  }
  EXPECT_NEAR(total, alignment.distance, 1e-9);
}

TEST(FrechetTest, KnownSmallCase) {
  // Parallel segments distance 1 apart: Fréchet = 1.
  FrechetMetric frechet;
  EXPECT_DOUBLE_EQ(frechet.Compute(Line({{0, 0}, {1, 0}, {2, 0}}),
                                   Line({{0, 1}, {1, 1}, {2, 1}})),
                   1.0);
}

TEST(FrechetTest, IsMaxNotSum) {
  FrechetMetric frechet;
  DtwMetric dtw;
  const Trajectory a = Line({{0, 0}, {1, 0}, {2, 0}});
  const Trajectory b = Line({{0, 1}, {1, 1}, {2, 1}});
  EXPECT_LT(frechet.Compute(a, b), dtw.Compute(a, b));
}

TEST(FrechetTest, DominatedByWorstPoint) {
  FrechetMetric frechet;
  const Trajectory a = Line({{0, 0}, {1, 0}, {2, 0}});
  const Trajectory b = Line({{0, 0}, {1, 5}, {2, 0}});
  EXPECT_DOUBLE_EQ(frechet.Compute(a, b), 5.0);
}

TEST(FrechetTest, OverflowingPointDistanceIsNotForgotten) {
  // d(a[0], b[0]) overflows to inf, and every coupling matches a[0] with
  // b[0], so the recurrence max(min(neighbours), d) carries inf to the end.
  FrechetMetric frechet;
  EXPECT_EQ(frechet.Compute(Line({{1e200, 0}, {0, 0}}), Line({{0, 0}})),
            std::numeric_limits<double>::infinity());
}

TEST(HausdorffTest, KnownSmallCase) {
  HausdorffMetric hausdorff;
  // b has an outlier point far from all of a.
  const Trajectory a = Line({{0, 0}, {1, 0}});
  const Trajectory b = Line({{0, 0}, {1, 0}, {1, 7}});
  EXPECT_DOUBLE_EQ(hausdorff.Compute(a, b), 7.0);
}

TEST(HausdorffTest, IgnoresOrdering) {
  HausdorffMetric hausdorff;
  const Trajectory forward = Line({{0, 0}, {1, 0}, {2, 0}});
  const Trajectory reversed = Line({{2, 0}, {1, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(hausdorff.Compute(forward, reversed), 0.0);
}

TEST(ErpTest, MatchesL1OfGapDistancesForDisjointLengths) {
  // ERP of a trajectory against a single identical point: remaining points
  // are deleted at cost of their distance to the gap.
  ErpMetric erp(Point{0, 0});
  const Trajectory a = Line({{1, 0}, {2, 0}});
  const Trajectory b = Line({{1, 0}});
  // Match (1,0)-(1,0), delete (2,0) at cost d((2,0),g)=2.
  EXPECT_DOUBLE_EQ(erp.Compute(a, b), 2.0);
}

TEST(ErpTest, EqualTrajectoriesHaveZeroDistance) {
  ErpMetric erp(Point{0, 0});
  const Trajectory a = Line({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_DOUBLE_EQ(erp.Compute(a, a), 0.0);
}

TEST(ErpTest, TriangleInequalityOnSamples) {
  // ERP is a true metric; spot-check the triangle inequality.
  ErpMetric erp(Point{0, 0});
  const auto trajs = data::GeneratePortoLike(6, 3);
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (size_t j = 0; j < trajs.size(); ++j) {
      for (size_t k = 0; k < trajs.size(); ++k) {
        EXPECT_LE(erp.Compute(trajs[i], trajs[k]),
                  erp.Compute(trajs[i], trajs[j]) +
                      erp.Compute(trajs[j], trajs[k]) + 1e-9);
      }
    }
  }
}

TEST(EdrTest, CountsUnmatchablePoints) {
  EdrMetric edr(0.1);
  const Trajectory a = Line({{0, 0}, {1, 0}, {2, 0}});
  const Trajectory b = Line({{0, 0}, {1, 0}, {9, 9}});
  EXPECT_DOUBLE_EQ(edr.Compute(a, b), 1.0);  // One substitution.
}

TEST(EdrTest, LengthDifferenceLowerBound) {
  EdrMetric edr(0.1);
  const Trajectory a = Line({{0, 0}});
  const Trajectory b = Line({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  EXPECT_DOUBLE_EQ(edr.Compute(a, b), 3.0);
}

TEST(EdrTest, EpsilonControlsMatching) {
  const Trajectory a = Line({{0, 0}, {1, 0}});
  const Trajectory b = Line({{0.05, 0}, {1.05, 0}});
  EXPECT_DOUBLE_EQ(EdrMetric(0.1).Compute(a, b), 0.0);
  EXPECT_DOUBLE_EQ(EdrMetric(0.01).Compute(a, b), 2.0);
}

TEST(LcssTest, LengthAndDistance) {
  LcssMetric lcss(0.1);
  const Trajectory a = Line({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  const Trajectory b = Line({{0, 0}, {5, 5}, {2, 0}});
  EXPECT_EQ(lcss.LcssLength(a, b), 2u);  // (0,0) and (2,0) match in order.
  EXPECT_DOUBLE_EQ(lcss.Compute(a, b), 1.0 - 2.0 / 3.0);
}

TEST(LcssTest, IdenticalTrajectoriesAreDistanceZero) {
  LcssMetric lcss(0.05);
  const Trajectory a = Line({{0, 0}, {1, 1}, {2, 2}});
  EXPECT_DOUBLE_EQ(lcss.Compute(a, a), 0.0);
}

TEST(LcssTest, DisjointTrajectoriesAreDistanceOne) {
  LcssMetric lcss(0.05);
  const Trajectory a = Line({{0, 0}, {1, 0}});
  const Trajectory b = Line({{10, 10}, {11, 10}});
  EXPECT_DOUBLE_EQ(lcss.Compute(a, b), 1.0);
}

// ---- Property tests across all metrics ------------------------------------

class MetricPropertyTest : public ::testing::TestWithParam<MetricType> {
 protected:
  std::unique_ptr<DistanceMetric> metric_ = CreateMetric(GetParam());
};

TEST_P(MetricPropertyTest, SymmetryOnRandomTrajectories) {
  const auto trajs = data::GeneratePortoLike(8, 11);
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (size_t j = i + 1; j < trajs.size(); ++j) {
      EXPECT_NEAR(metric_->Compute(trajs[i], trajs[j]),
                  metric_->Compute(trajs[j], trajs[i]), 1e-9)
          << MetricName(GetParam());
    }
  }
}

TEST_P(MetricPropertyTest, NonNegativity) {
  const auto trajs = data::GeneratePortoLike(8, 12);
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (size_t j = 0; j < trajs.size(); ++j) {
      EXPECT_GE(metric_->Compute(trajs[i], trajs[j]), 0.0);
    }
  }
}

TEST_P(MetricPropertyTest, IdentityGivesZero) {
  const auto trajs = data::GeneratePortoLike(5, 13);
  for (const auto& t : trajs) {
    EXPECT_NEAR(metric_->Compute(t, t), 0.0, 1e-12)
        << MetricName(GetParam());
  }
}

TEST_P(MetricPropertyTest, FartherCopyIsFarther) {
  // Shifting a copy of the trajectory further away must not decrease the
  // distance (all six metrics are monotone in a rigid offset).
  const auto trajs = data::GeneratePortoLike(4, 14);
  for (const auto& t : trajs) {
    std::vector<Point> near_points;
    std::vector<Point> far_points;
    for (const Point& p : t) {
      near_points.push_back({p.lon + 0.001, p.lat});
      far_points.push_back({p.lon + 0.5, p.lat});
    }
    const Trajectory near_copy(std::move(near_points));
    const Trajectory far_copy(std::move(far_points));
    EXPECT_LE(metric_->Compute(t, near_copy),
              metric_->Compute(t, far_copy) + 1e-9)
        << MetricName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricPropertyTest,
                         ::testing::ValuesIn(AllMetricTypes()),
                         [](const auto& info) {
                           return MetricName(info.param);
                         });

// ---- Metric registry -------------------------------------------------------

TEST(MetricRegistryTest, NamesAndMatchingBasedFlags) {
  EXPECT_EQ(MetricName(MetricType::kDtw), "DTW");
  EXPECT_EQ(MetricName(MetricType::kFrechet), "Frechet");
  EXPECT_TRUE(IsMatchingBased(MetricType::kDtw));
  EXPECT_TRUE(IsMatchingBased(MetricType::kErp));
  EXPECT_TRUE(IsMatchingBased(MetricType::kEdr));
  EXPECT_TRUE(IsMatchingBased(MetricType::kLcss));
  EXPECT_FALSE(IsMatchingBased(MetricType::kFrechet));
  EXPECT_FALSE(IsMatchingBased(MetricType::kHausdorff));
  EXPECT_EQ(AllMetricTypes().size(), 6u);
}

TEST(MetricRegistryTest, FactoryRespectsParams) {
  MetricParams params;
  params.epsilon = 0.25;
  params.gap = Point{1.0, 1.0};
  auto edr = CreateMetric(MetricType::kEdr, params);
  auto erp = CreateMetric(MetricType::kErp, params);
  EXPECT_EQ(static_cast<EdrMetric*>(edr.get())->epsilon(), 0.25);
  EXPECT_EQ(static_cast<ErpMetric*>(erp.get())->gap().lon, 1.0);
}

// ---- Distance matrices -----------------------------------------------------

TEST(DistanceMatrixTest, SymmetricWithZeroDiagonal) {
  const auto trajs = data::GeneratePortoLike(10, 21);
  DtwMetric dtw;
  const DoubleMatrix d = ComputeDistanceMatrix(trajs, dtw, 1);
  ASSERT_EQ(d.rows(), trajs.size());
  for (size_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d.at(i, i), 0.0);
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_DOUBLE_EQ(d.at(i, j), d.at(j, i));
    }
  }
}

TEST(DistanceMatrixTest, ParallelMatchesSerial) {
  const auto trajs = data::GeneratePortoLike(12, 22);
  FrechetMetric frechet;
  const DoubleMatrix serial = ComputeDistanceMatrix(trajs, frechet, 1);
  const DoubleMatrix parallel = ComputeDistanceMatrix(trajs, frechet, 4);
  for (size_t i = 0; i < serial.rows(); ++i) {
    for (size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_DOUBLE_EQ(serial.at(i, j), parallel.at(i, j));
    }
  }
}

TEST(DistanceMatrixTest, PoolDefaultMatchesSerialBitwise) {
  // num_threads = 0 routes through the shared thread pool; results must be
  // bitwise identical to the sequential path since each cell is computed
  // independently and written to a disjoint slot.
  const auto trajs = data::GeneratePortoLike(12, 25);
  DtwMetric dtw;
  const DoubleMatrix serial = ComputeDistanceMatrix(trajs, dtw, 1);
  const DoubleMatrix pooled = ComputeDistanceMatrix(trajs, dtw, 0);
  for (size_t i = 0; i < serial.rows(); ++i) {
    for (size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(serial.at(i, j), pooled.at(i, j));
    }
  }
}

TEST(DistanceMatrixTest, CrossMatrixPoolMatchesSerialBitwise) {
  const auto base = data::GeneratePortoLike(8, 26);
  const auto queries = data::GeneratePortoLike(4, 27);
  FrechetMetric frechet;
  const DoubleMatrix serial =
      ComputeCrossDistanceMatrix(queries, base, frechet, 1);
  const DoubleMatrix pooled =
      ComputeCrossDistanceMatrix(queries, base, frechet, 0);
  for (size_t i = 0; i < serial.rows(); ++i) {
    for (size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(serial.at(i, j), pooled.at(i, j));
    }
  }
}

TEST(DistanceMatrixTest, CrossMatrixMatchesDirectComputation) {
  const auto base = data::GeneratePortoLike(6, 23);
  const auto queries = data::GeneratePortoLike(3, 24);
  HausdorffMetric hausdorff;
  const DoubleMatrix cross =
      ComputeCrossDistanceMatrix(queries, base, hausdorff, 2);
  ASSERT_EQ(cross.rows(), 3u);
  ASSERT_EQ(cross.cols(), 6u);
  for (size_t i = 0; i < cross.rows(); ++i) {
    for (size_t j = 0; j < cross.cols(); ++j) {
      EXPECT_DOUBLE_EQ(cross.at(i, j),
                       hausdorff.Compute(queries[i], base[j]));
    }
  }
}

TEST(DistanceMatrixTest, SimilarityTransformRangeAndMonotonicity) {
  DoubleMatrix d(2, 2);
  d.at(0, 1) = 1.0;
  d.at(1, 0) = 3.0;
  const DoubleMatrix s = DistanceToSimilarity(d, 0.5);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1.0);  // exp(0).
  EXPECT_NEAR(s.at(0, 1), std::exp(-0.5), 1e-12);
  EXPECT_GT(s.at(0, 1), s.at(1, 0));  // Smaller distance => more similar.
  for (double v : s.data()) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(DistanceMatrixTest, MeanOffDiagonal) {
  DoubleMatrix d(3, 3, 0.0);
  d.at(0, 1) = d.at(1, 0) = 2.0;
  d.at(0, 2) = d.at(2, 0) = 4.0;
  d.at(1, 2) = d.at(2, 1) = 6.0;
  EXPECT_DOUBLE_EQ(MeanOffDiagonal(d), 4.0);
}

}  // namespace
}  // namespace tmn::dist
