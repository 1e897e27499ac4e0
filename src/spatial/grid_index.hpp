// Uniform grid over a bounding box for radius queries on point sets.
//
// Used to find a device's neighbor set (Algorithm 4: devices within
// 2·d^k_max) and to prune candidate-position coverage checks without an
// O(No) scan per query.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/geometry/vec2.hpp"

namespace hipo::spatial {

/// Cell coordinate `v` (in cell units) clamped into [0, n): floor(v) in
/// range, 0 for NaN and below, n - 1 from n up. Every uniform grid here
/// maps coordinates through it. The clamp runs in double before the
/// conversion — casting NaN or a value past the integer range is
/// undefined — and compiles to a max/min pair with no branch; the signed
/// conversion is one instruction, where a direct double-to-size_t cast
/// costs a compare and a fix-up.
inline std::size_t clamp_idx(double v, std::size_t n) {
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(
      std::min(std::max(0.0, v), static_cast<double>(n - 1))));
}

class GridIndex {
 public:
  /// Empty index: no points, every query returns nothing.
  GridIndex() : cell_start_(2, 0) {}

  /// Builds an index over `points` inside `bounds`; `target_per_cell`
  /// controls grid resolution. Points outside bounds are clamped to the
  /// boundary cells (still retrievable).
  GridIndex(const geom::BBox& bounds, std::vector<geom::Vec2> points,
            double target_per_cell = 2.0);

  /// Indices of points within `radius` of `center` (exact post-filter),
  /// ascending. A center far outside the bounds (even non-finite) is
  /// clamped to the boundary cells like any point.
  std::vector<std::size_t> query_radius(geom::Vec2 center,
                                        double radius) const;
  /// The same query into a caller-owned buffer: `out` is cleared, then
  /// filled with exactly what the vector form returns. Hot loops reuse one
  /// buffer across queries instead of allocating per call.
  void query_radius(geom::Vec2 center, double radius,
                    std::vector<std::size_t>& out) const;

  /// Indices of points inside the axis-aligned box (exact post-filter).
  std::vector<std::size_t> query_box(const geom::BBox& box) const;

  std::size_t size() const { return cell_ids_.size(); }

 private:
  std::size_t cell_of(geom::Vec2 p) const;
  void cell_range(const geom::BBox& box, std::size_t& x0, std::size_t& x1,
                  std::size_t& y0, std::size_t& y1) const;

  geom::BBox bounds_;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  /// Cells in CSR form: cell c holds entries [cell_start_[c],
  /// cell_start_[c + 1]) of cell_ids_ (ascending point indices) and
  /// cell_points_ (their coordinates, so a scan reads one contiguous run).
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> cell_ids_;
  std::vector<geom::Vec2> cell_points_;
};

}  // namespace hipo::spatial
