#include "data/grid.h"

#include <algorithm>

#include "common/check.h"

namespace tmn::data {

Grid::Grid(const geo::BoundingBox& box, int cells_per_side)
    : box_(box), cells_per_side_(cells_per_side) {
  TMN_CHECK(cells_per_side_ > 0);
  TMN_CHECK(!box_.empty());
}

int Grid::CoordToIndex(double v, double lo, double extent) const {
  if (extent <= 0.0) return 0;
  const double frac = (v - lo) / extent;
  const int idx = static_cast<int>(frac * cells_per_side_);
  return std::clamp(idx, 0, cells_per_side_ - 1);
}

int64_t Grid::CellOf(const geo::Point& p) const {
  const int x = CoordToIndex(p.lon, box_.min_lon, box_.Width());
  const int y = CoordToIndex(p.lat, box_.min_lat, box_.Height());
  return static_cast<int64_t>(y) * cells_per_side_ + x;
}

geo::Point Grid::CellCenter(int64_t cell) const {
  TMN_CHECK(cell >= 0 && cell < num_cells());
  const int x = static_cast<int>(cell % cells_per_side_);
  const int y = static_cast<int>(cell / cells_per_side_);
  return geo::Point{
      box_.min_lon + box_.Width() * (x + 0.5) / cells_per_side_,
      box_.min_lat + box_.Height() * (y + 0.5) / cells_per_side_};
}

std::vector<int64_t> Grid::NeighborhoodOf(const geo::Point& p) const {
  const int64_t cell = CellOf(p);
  const int x = static_cast<int>(cell % cells_per_side_);
  const int y = static_cast<int>(cell / cells_per_side_);
  // reserve + push_back rather than `out{cell}`: gcc 12 under
  // -fsanitize=undefined reads the one-element initializer as the whole
  // array and warns (-Warray-bounds) on the push_backs below.
  std::vector<int64_t> out;
  out.reserve(5);
  out.push_back(cell);
  if (x > 0) out.push_back(cell - 1);
  if (x + 1 < cells_per_side_) out.push_back(cell + 1);
  if (y > 0) out.push_back(cell - cells_per_side_);
  if (y + 1 < cells_per_side_) out.push_back(cell + cells_per_side_);
  return out;
}

}  // namespace tmn::data
