#include "src/spatial/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace hipo::spatial {

using geom::BBox;
using geom::Vec2;

namespace {

/// Cells along one axis: `want` rounded and clamped into [1, cap]. A
/// region far thinner than the cell count would otherwise ask for more
/// cells along its long axis than the size_t range (or memory) holds; NaN
/// (an infinite extent) gives 1.
std::size_t axis_cells(double want, double cap) {
  if (!(want >= 1.0)) return 1;
  return static_cast<std::size_t>(std::lround(std::min(want, cap)));
}

}  // namespace

GridIndex::GridIndex(const BBox& bounds, std::vector<Vec2> points,
                     double target_per_cell)
    : bounds_(bounds) {
  HIPO_REQUIRE(bounds.hi.x > bounds.lo.x && bounds.hi.y > bounds.lo.y,
               "GridIndex needs a non-degenerate bounding box");
  HIPO_REQUIRE(target_per_cell > 0.0, "target_per_cell must be positive");
  const double n = std::max<double>(1.0, static_cast<double>(points.size()));
  const double cells = std::max(1.0, n / target_per_cell);
  const Vec2 ext = bounds.extent();
  const double aspect = ext.x / ext.y;
  const double cap = std::ceil(cells);
  nx_ = axis_cells(std::sqrt(cells * aspect), cap);
  ny_ = axis_cells(std::sqrt(cells / aspect), cap);
  cell_w_ = ext.x / static_cast<double>(nx_);
  cell_h_ = ext.y / static_cast<double>(ny_);
  // Counting sort by cell; a stable pass keeps each cell's indices
  // ascending.
  std::vector<std::size_t> cell(points.size());
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    cell[i] = cell_of(points[i]);
    ++cell_start_[cell[i] + 1];
  }
  for (std::size_t c = 0; c < nx_ * ny_; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  cell_ids_.resize(points.size());
  cell_points_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t slot = fill[cell[i]]++;
    cell_ids_[slot] = i;
    cell_points_[slot] = points[i];
  }
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  const std::size_t cx = clamp_idx((p.x - bounds_.lo.x) / cell_w_, nx_);
  const std::size_t cy = clamp_idx((p.y - bounds_.lo.y) / cell_h_, ny_);
  return cy * nx_ + cx;
}

void GridIndex::cell_range(const BBox& box, std::size_t& x0, std::size_t& x1,
                           std::size_t& y0, std::size_t& y1) const {
  x0 = clamp_idx((box.lo.x - bounds_.lo.x) / cell_w_, nx_);
  x1 = clamp_idx((box.hi.x - bounds_.lo.x) / cell_w_, nx_);
  y0 = clamp_idx((box.lo.y - bounds_.lo.y) / cell_h_, ny_);
  y1 = clamp_idx((box.hi.y - bounds_.lo.y) / cell_h_, ny_);
}

std::vector<std::size_t> GridIndex::query_radius(Vec2 center,
                                                 double radius) const {
  std::vector<std::size_t> out;
  query_radius(center, radius, out);
  return out;
}

void GridIndex::query_radius(Vec2 center, double radius,
                             std::vector<std::size_t>& out) const {
  HIPO_REQUIRE(radius >= 0.0, "radius must be non-negative");
  BBox box;
  box.lo = center - Vec2{radius, radius};
  box.hi = center + Vec2{radius, radius};
  std::size_t x0, x1, y0, y1;
  cell_range(box, x0, x1, y0, y1);
  out.clear();
  const double r2 = radius * radius;
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    // Cells x0..x1 of one row are adjacent in the CSR: one contiguous run.
    const std::size_t end = cell_start_[cy * nx_ + x1 + 1];
    for (std::size_t k = cell_start_[cy * nx_ + x0]; k < end; ++k) {
      if (distance2(cell_points_[k], center) <= r2) out.push_back(cell_ids_[k]);
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<std::size_t> GridIndex::query_box(const BBox& box) const {
  std::size_t x0, x1, y0, y1;
  cell_range(box, x0, x1, y0, y1);
  std::vector<std::size_t> out;
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    const std::size_t end = cell_start_[cy * nx_ + x1 + 1];
    for (std::size_t k = cell_start_[cy * nx_ + x0]; k < end; ++k) {
      if (box.contains(cell_points_[k])) out.push_back(cell_ids_[k]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hipo::spatial
