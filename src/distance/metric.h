#ifndef TMN_DISTANCE_METRIC_H_
#define TMN_DISTANCE_METRIC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/trajectory.h"

namespace tmn::dist {

// The six trajectory distance metrics evaluated in the paper (Section V).
enum class MetricType {
  kDtw,
  kFrechet,
  kHausdorff,
  kErp,
  kEdr,
  kLcss,
};

// All metric types in the paper's Table II column order.
const std::vector<MetricType>& AllMetricTypes();

std::string MetricName(MetricType type);

// Inverse of MetricName, case-insensitive ("dtw", "Frechet", ...).
std::optional<MetricType> MetricFromName(const std::string& name);

// Whether the metric is "matching-based" in the paper's sense (Section V.B:
// DTW, ERP, EDR and LCSS find many point match pairs and accumulate them).
bool IsMatchingBased(MetricType type);

// Tunable constants shared by the metrics.
struct MetricParams {
  // Matching threshold for EDR and LCSS. The datasets are normalized to the
  // unit square, so this is a fraction of the city extent.
  double epsilon = 0.005;
  // Gap (reference) point g for ERP.
  geo::Point gap{0.0, 0.0};
};

// Interface for an exact trajectory distance metric f(.,.). Implementations
// are stateless and thread-compatible: Compute may be called concurrently.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  virtual MetricType type() const = 0;
  std::string name() const { return MetricName(type()); }

  // Exact distance between two trajectories. Both must be non-empty. For
  // finite coordinates each DP cell does the textbook recurrence's
  // arithmetic (the same sums, and min/max, which are exact), so the result
  // equals a naive evaluation of that recurrence bit for bit;
  // tests/distance_reference_test.cc pins this for every DP metric.
  virtual double Compute(const geo::Trajectory& a,
                         const geo::Trajectory& b) const = 0;
};

// The points of a non-empty `t` as the interleaved (x, y) doubles that the
// exact DP kernels (nn::kernels::KernelTable::dtw, ::frechet) take.
inline const double* PointCoordinates(const geo::Trajectory& t) {
  static_assert(sizeof(geo::Point) == 2 * sizeof(double));
  return &t[0].lon;
}

// Factory for the metric implementations in this directory.
std::unique_ptr<DistanceMetric> CreateMetric(MetricType type,
                                             const MetricParams& params = {});

}  // namespace tmn::dist

#endif  // TMN_DISTANCE_METRIC_H_
