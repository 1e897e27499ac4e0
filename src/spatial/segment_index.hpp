// Uniform grid over obstacle polygons for the obstacle-query hot path.
//
// Every power/coverage evaluation bottoms out in two predicates — "does the
// open segment charger–device cross an obstacle interior?" (Eq. 1's
// line-of-sight condition) and "is this point inside an obstacle?" (charger
// placement feasibility) — which the brute-force formulation answers by
// scanning all polygons and edges. SegmentIndex buckets polygon bounding
// boxes into a uniform grid sized by the edge count (the polygon analogue
// of GridIndex for points), so queries touch only the cells a segment or
// disk overlaps and then run the *exact* polygon predicates, edge by edge,
// on the few candidates found there.
// Results are therefore bit-identical to the brute-force scan; only the set
// of polygons examined shrinks.
//
// Thread safety: all queries are const and allocate only local scratch, so
// concurrent queries from extraction worker threads are safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/geometry/segment.hpp"
#include "src/geometry/vec2.hpp"
#include "src/obs/metrics.hpp"

namespace hipo::spatial {

namespace detail {

/// Query telemetry for the obstacle hot path, resolved once (the registry
/// lookup is out-of-line in segment_index.cpp) and bumped behind a single
/// `metrics_enabled()` branch per query.
struct SegmentIndexCounters {
  obs::Counter& segment_queries;
  obs::Counter& segment_early_outs;
  obs::Counter& point_queries;
  obs::Counter& point_early_outs;
};
SegmentIndexCounters& segment_index_counters();

}  // namespace detail

class SegmentIndex {
 public:
  /// Empty index: no polygons, every query trivially negative.
  SegmentIndex();

  /// Index over `polygons`, gridded across `bounds` (expanded as needed to
  /// cover every polygon's bounding box). `target_edges_per_cell` controls
  /// resolution; a huge value degenerates to one cell, i.e. the brute-force
  /// scan (used for A/B benchmarking).
  SegmentIndex(const geom::BBox& bounds, std::vector<geom::Polygon> polygons,
               double target_edges_per_cell = 1.5);

  const std::vector<geom::Polygon>& polygons() const { return polygons_; }
  std::size_t num_polygons() const { return polygons_.size(); }
  std::size_t num_edges() const { return edge_segs_.size(); }
  std::size_t num_cells() const { return nx_ * ny_; }

  /// True iff the open segment passes through some polygon's interior —
  /// exactly Polygon::blocks_segment over all polygons. Defined inline so
  /// the dominant nothing-nearby outcome resolves with a handful of flops
  /// and the four summed-area-table loads, without an out-of-line call.
  bool segment_blocked(const geom::Segment& seg) const {
    if (polygons_.empty()) return false;
    const bool obs_on = obs::metrics_enabled();
    if (obs_on) [[unlikely]] {
      detail::segment_index_counters().segment_queries.bump();
    }
    geom::BBox sb;
    sb.lo = {std::min(seg.a.x, seg.b.x), std::min(seg.a.y, seg.b.y)};
    sb.hi = {std::max(seg.a.x, seg.b.x), std::max(seg.a.y, seg.b.y)};
    std::size_t x0, x1, y0, y1;
    sat_range({{sb.lo.x - kMargin, sb.lo.y - kMargin},
               {sb.hi.x + kMargin, sb.hi.y + kMargin}},
              x0, x1, y0, y1);
    if (rect_content(x0, x1, y0, y1) == 0) {
      if (obs_on) [[unlikely]] {
        detail::segment_index_counters().segment_early_outs.bump();
      }
      return false;
    }
    return segment_blocked_cold(seg, sb);
  }

  /// True iff some polygon contains p (boundary inclusive) — exactly
  /// Polygon::contains over all polygons. Inline early-out as in
  /// segment_blocked: a zero summed-area count around p certifies no
  /// polygon bbox (with margin) reaches it.
  bool point_in_any(geom::Vec2 p) const {
    if (polygons_.empty()) return false;
    const bool obs_on = obs::metrics_enabled();
    if (obs_on) [[unlikely]] {
      detail::segment_index_counters().point_queries.bump();
    }
    std::size_t x0, x1, y0, y1;
    sat_range({{p.x - kMargin, p.y - kMargin}, {p.x + kMargin, p.y + kMargin}},
              x0, x1, y0, y1);
    if (rect_content(x0, x1, y0, y1) == 0) {
      if (obs_on) [[unlikely]] {
        detail::segment_index_counters().point_early_outs.bump();
      }
      return false;
    }
    return point_in_any_cold(p);
  }

  /// Ascending indices of polygons whose bounding box intersects `box`
  /// (with the index's safety margin as slack). Conservative pre-filter for
  /// callers that run their own exact per-edge or per-vertex tests.
  std::vector<std::size_t> polygons_in_box(const geom::BBox& box) const;

  /// Ascending indices of polygons whose *boundary* comes within `radius`
  /// of `p` (exact min edge distance, boundary-inclusive) — the ShadowMap
  /// relevance filter.
  std::vector<std::size_t> polygons_near(geom::Vec2 p, double radius) const;

  /// Min distance from p to the boundary of polygon `polygon`.
  double boundary_distance(std::size_t polygon, geom::Vec2 p) const;

 private:
  /// Safety slack applied when registering/collecting cells. Strictly
  /// larger than every tolerance the exact polygon predicates use
  /// (kEps = 1e-9, kCoverEps = 1e-7), so an entity within predicate
  /// tolerance of a cell is always registered in it.
  static constexpr double kMargin = 1e-6;
  /// segment_blocked past its inline early-out: gather nearby polygons
  /// and replicate Polygon::blocks_segment on each.
  bool segment_blocked_cold(const geom::Segment& seg,
                            const geom::BBox& sb) const;
  /// point_in_any past its inline early-out.
  bool point_in_any_cold(geom::Vec2 p) const;
  std::size_t cell_of(geom::Vec2 p) const;
  void cell_range(const geom::BBox& box, std::size_t& x0, std::size_t& x1,
                  std::size_t& y0, std::size_t& y1) const;
  /// Like cell_range but on the (finer) summed-area-table grid.
  void sat_range(const geom::BBox& box, std::size_t& x0, std::size_t& x1,
                 std::size_t& y0, std::size_t& y1) const {
    // ptrdiff_t clamp: branchless (cmov) and well-defined for the
    // negative values an out-of-bounds query produces.
    const auto clamp_idx = [](double v, std::size_t n) {
      const auto i = static_cast<std::ptrdiff_t>(v);
      return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
          i, 0, static_cast<std::ptrdiff_t>(n) - 1));
    };
    x0 = clamp_idx((box.lo.x - bounds_.lo.x) * inv_sat_w_, sat_nx_);
    x1 = clamp_idx((box.hi.x - bounds_.lo.x) * inv_sat_w_, sat_nx_);
    y0 = clamp_idx((box.lo.y - bounds_.lo.y) * inv_sat_h_, sat_ny_);
    y1 = clamp_idx((box.hi.y - bounds_.lo.y) * inv_sat_h_, sat_ny_);
  }
  /// Total polygon registrations in the inclusive SAT-cell rectangle —
  /// O(1) via the summed-area table; zero means every query against the
  /// rectangle is trivially negative.
  std::uint64_t rect_content(std::size_t x0, std::size_t x1, std::size_t y0,
                             std::size_t y1) const {
    const std::size_t stride = sat_nx_ + 1;
    return content_sat_[(y1 + 1) * stride + (x1 + 1)] -
           content_sat_[y0 * stride + (x1 + 1)] -
           content_sat_[(y1 + 1) * stride + x0] +
           content_sat_[y0 * stride + x0];
  }
  /// Bit-exact replica of polygons_[pi].contains_interior(p, kEps) for the
  /// midpoint walk: the reference routine's on_boundary scan costs one
  /// point-segment distance (with a hypot) per edge. A branch-free sweep of
  /// *squared* point-edge distances against (2*kEps)^2 rules the boundary
  /// out first — the factor-2 slack dwarfs every rounding difference from
  /// the reference distance (~1e-15 vs 1e-9) — and the crossing-number
  /// loop then runs branchlessly. Falls back to the reference routine in
  /// the measure-zero near-boundary case.
  bool poly_contains_interior(std::uint32_t pi, geom::Vec2 p) const;

  std::vector<geom::Polygon> polygons_;
  geom::BBox bounds_{{0.0, 0.0}, {1.0, 1.0}};
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  /// Reciprocal cell sizes, cached because the point->cell maps run on the LOS hot
  /// path, where a divide per coordinate is measurable.
  double inv_cell_w_ = 1.0;
  double inv_cell_h_ = 1.0;
  std::span<const std::uint32_t> polys_in_cell(std::size_t c) const {
    return {cell_poly_data_.data() + cell_poly_start_[c],
            cell_poly_start_[c + 1] - cell_poly_start_[c]};
  }

  /// Edge id -> geometry.
  std::vector<geom::Segment> edge_segs_;
  /// Edge id -> kMargin-inflated bounding box, flat. Slab-clip gate in the
  /// query walk: any intersection the eps-tolerant predicate can report
  /// lies within far less than kMargin of both segments, so edges whose
  /// inflated bbox the query segment misses are skipped without the exact
  /// test.
  std::vector<geom::BBox> edge_gate_bbox_;
  /// Edge id -> direction (b - a) and its norm, precomputed so the inlined
  /// intersection replica skips the per-call hypot; reciprocal squared
  /// length (0 for degenerate edges) for the boundary-distance screen.
  std::vector<geom::Vec2> edge_dir_;
  std::vector<double> edge_norm_;
  std::vector<double> edge_inv_len2_;
  /// Polygon -> first edge id; edges of polygon pi are the contiguous range
  /// [poly_edge_start_[pi], poly_edge_start_[pi + 1]). segment_blocked
  /// walks candidate polygons' own edge ranges directly -- obstacle
  /// polygons are small, so per-edge cell bookkeeping would only add
  /// duplicate tests and unpredictable inner branches.
  std::vector<std::uint32_t> poly_edge_start_;
  /// Cell -> polygons whose bbox overlaps the cell (ascending), CSR layout:
  /// one flat data array plus per-cell offsets. Queries walk several cells
  /// back to back, so per-cell heap blocks would cost a dependent cache miss
  /// each.
  std::vector<std::uint32_t> cell_poly_start_;
  std::vector<std::uint32_t> cell_poly_data_;
  /// 1-D column registration for segment_blocked's gather: every polygon
  /// listed exactly once, under the first grid column its kMargin-inflated
  /// bbox overlaps. A query scans columns [x0 - col_span_, x1] as one flat
  /// CSR range -- a single predictable loop with no duplicates, where a 2-D
  /// walk pays a branch miss per row and per repeated registration.
  /// col_span_ is the widest per-polygon column span, so the widened scan
  /// range catches every polygon whose box reaches the query's columns.
  std::vector<std::uint32_t> col_start_;
  std::vector<std::uint32_t> col_data_;
  std::size_t col_span_ = 0;
  /// Polygon bounding boxes, flat — the hot-path bbox gate reads these
  /// instead of chasing into the Polygon objects.
  std::vector<geom::BBox> poly_bbox_;
  /// Summed-area table of polygon registration counts on its own grid,
  /// (sat_nx_+1) x (sat_ny_+1), row stride sat_nx_+1. Lets segment_blocked
  /// dismiss the common no-obstacle-nearby case with four loads. The SAT
  /// grid is finer than the CSR grid: the O(1) lookup cost is resolution
  /// independent, and a tighter rectangle turns near-miss queries into
  /// early-outs before any cell list is touched.
  std::size_t sat_nx_ = 1;
  std::size_t sat_ny_ = 1;
  double inv_sat_w_ = 1.0;
  double inv_sat_h_ = 1.0;
  std::vector<std::uint64_t> content_sat_;
};

}  // namespace hipo::spatial
