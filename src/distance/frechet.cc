#include "distance/frechet.h"

#include "common/check.h"
#include "nn/kernels/kernels.h"

namespace tmn::dist {

double FrechetMetric::Compute(const geo::Trajectory& a,
                              const geo::Trajectory& b) const {
  TMN_CHECK(!a.empty() && !b.empty());
  return nn::kernels::Active().frechet(PointCoordinates(a), a.size(),
                                       PointCoordinates(b), b.size());
}

}  // namespace tmn::dist
