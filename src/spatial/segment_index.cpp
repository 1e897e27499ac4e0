#include "src/spatial/segment_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.hpp"

namespace hipo::spatial {

namespace detail {

SegmentIndexCounters& segment_index_counters() {
  static SegmentIndexCounters c{
      obs::counter("segment_index.segment_queries"),
      obs::counter("segment_index.segment_early_outs"),
      obs::counter("segment_index.point_queries"),
      obs::counter("segment_index.point_early_outs"),
  };
  return c;
}

}  // namespace detail

using geom::BBox;
using geom::Segment;
using geom::Vec2;

namespace {

/// Grid resolution cap per axis; keeps degenerate inputs bounded.
constexpr std::size_t kMaxCellsPerAxis = 512;
/// Grid resolution: about four cells per polygon edge. Fine cells keep a
/// charging-range segment's bbox down to a handful of short cell lists.
constexpr double kEdgesPerCell = 0.25;
/// Largest polygon the exact replica in segment_blocked_cold handles with
/// its stack buffer; bigger ones go through Polygon::blocks_segment.
constexpr std::size_t kSmall = 48;

BBox inflate(const BBox& b, double by) {
  BBox out;
  out.lo = b.lo - Vec2{by, by};
  out.hi = b.hi + Vec2{by, by};
  return out;
}

/// Slab-clipping segment-vs-box overlap with the reciprocal direction
/// precomputed once per segment (the test runs once per obstacle edge).
struct SegmentClipper {
  double org[2];
  double inv[2];
  bool flat[2];  // axis-degenerate direction

  explicit SegmentClipper(const Segment& seg) {
    const Vec2 d = seg.direction();
    org[0] = seg.a.x;
    org[1] = seg.a.y;
    const double dir[2] = {d.x, d.y};
    for (int axis = 0; axis < 2; ++axis) {
      flat[axis] = std::abs(dir[axis]) < 1e-300;
      inv[axis] = flat[axis] ? 0.0 : 1.0 / dir[axis];
    }
  }

  /// Branch-free except the (per-segment-constant) flat-axis test: the
  /// interval min/max chains compile to minsd/maxsd, so pass/fail never
  /// costs a data-dependent branch miss.
  bool overlaps(const BBox& box) const {
    double t0 = 0.0;
    double t1 = 1.0;
    unsigned ok = 1;
    const double lo[2] = {box.lo.x, box.lo.y};
    const double hi[2] = {box.hi.x, box.hi.y};
    for (int axis = 0; axis < 2; ++axis) {
      if (flat[axis]) {
        ok &= static_cast<unsigned>(org[axis] >= lo[axis]) &
              static_cast<unsigned>(org[axis] <= hi[axis]);
        continue;
      }
      const double ta = (lo[axis] - org[axis]) * inv[axis];
      const double tb = (hi[axis] - org[axis]) * inv[axis];
      t0 = std::max(t0, std::min(ta, tb));
      t1 = std::min(t1, std::max(ta, tb));
    }
    return (ok & static_cast<unsigned>(t0 <= t1)) != 0;
  }
};

void sort_unique(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Flattens per-cell id lists into CSR (offsets + one flat array).
void flatten(const std::vector<std::vector<std::uint32_t>>& cells,
             std::vector<std::uint32_t>& start,
             std::vector<std::uint32_t>& data) {
  start.assign(cells.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    start[c] = static_cast<std::uint32_t>(total);
    total += cells[c].size();
  }
  start[cells.size()] = static_cast<std::uint32_t>(total);
  data.reserve(total);
  for (const auto& cell : cells) {
    data.insert(data.end(), cell.begin(), cell.end());
  }
}

}  // namespace

SegmentIndex::SegmentIndex() {
  cell_poly_start_.assign(2, 0);
  poly_edge_start_.assign(1, 0);
  content_sat_.assign(4, 0);
}

SegmentIndex::SegmentIndex(const BBox& bounds,
                           std::vector<geom::Polygon> polygons)
    : polygons_(std::move(polygons)) {
  HIPO_REQUIRE(bounds.hi.x > bounds.lo.x && bounds.hi.y > bounds.lo.y,
               "SegmentIndex needs a non-degenerate bounding box");

  // Cover every polygon even if it pokes outside the nominal bounds.
  bounds_ = bounds;
  std::size_t n_edges = 0;
  for (const auto& h : polygons_) {
    n_edges += h.size();
    bounds_.lo.x = std::min(bounds_.lo.x, h.bbox().lo.x);
    bounds_.lo.y = std::min(bounds_.lo.y, h.bbox().lo.y);
    bounds_.hi.x = std::max(bounds_.hi.x, h.bbox().hi.x);
    bounds_.hi.y = std::max(bounds_.hi.y, h.bbox().hi.y);
  }
  bounds_ = inflate(bounds_, kMargin);

  const double cells = std::max(
      1.0, static_cast<double>(std::max<std::size_t>(n_edges, 1)) /
               kEdgesPerCell);
  const Vec2 ext = bounds_.extent();
  const double aspect = ext.x / ext.y;
  nx_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(std::sqrt(cells * aspect))), 1,
      kMaxCellsPerAxis);
  ny_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(std::sqrt(cells / aspect))), 1,
      kMaxCellsPerAxis);
  inv_cell_w_ = 1.0 / (ext.x / static_cast<double>(nx_));
  inv_cell_h_ = 1.0 / (ext.y / static_cast<double>(ny_));
  std::vector<std::vector<std::uint32_t>> cell_polys(nx_ * ny_);

  edge_segs_.reserve(n_edges);
  edge_gate_bbox_.reserve(n_edges);
  edge_dir_.reserve(n_edges);
  edge_norm_.reserve(n_edges);
  poly_edge_start_.reserve(polygons_.size() + 1);
  poly_first_cell_.reserve(polygons_.size());
  for (std::size_t pi = 0; pi < polygons_.size(); ++pi) {
    const auto& h = polygons_[pi];
    poly_edge_start_.push_back(static_cast<std::uint32_t>(edge_segs_.size()));
    for (std::size_t e = 0; e < h.size(); ++e) {
      edge_segs_.push_back(h.edge(e));
      const Segment& es = edge_segs_.back();
      edge_gate_bbox_.push_back(inflate(
          {{std::min(es.a.x, es.b.x), std::min(es.a.y, es.b.y)},
           {std::max(es.a.x, es.b.x), std::max(es.a.y, es.b.y)}},
          kMargin));
      edge_dir_.push_back(es.direction());
      edge_norm_.push_back(edge_dir_.back().norm());
      const double len2 = edge_dir_.back().norm2();
      edge_inv_len2_.push_back(len2 > 0.0 ? 1.0 / len2 : 0.0);
    }
    std::size_t x0, x1, y0, y1;
    cell_range(inflate(h.bbox(), kMargin), x0, x1, y0, y1);
    poly_first_cell_.push_back(
        {static_cast<std::uint32_t>(x0), static_cast<std::uint32_t>(y0)});
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) {
        cell_polys[cy * nx_ + cx].push_back(static_cast<std::uint32_t>(pi));
      }
    }
  }
  poly_edge_start_.push_back(static_cast<std::uint32_t>(edge_segs_.size()));
  flatten(cell_polys, cell_poly_start_, cell_poly_data_);

  poly_bbox_.reserve(polygons_.size());
  for (const auto& h : polygons_) poly_bbox_.push_back(h.bbox());

  // SAT grid: 4x the CSR resolution per axis (capped). Registration is
  // per-polygon over the kMargin-inflated bbox, mirroring the CSR lists,
  // so zero content in a query rectangle still certifies that no polygon
  // can pass blocks_segment's bbox gate.
  sat_nx_ = std::min<std::size_t>(nx_ * 4, kMaxCellsPerAxis);
  sat_ny_ = std::min<std::size_t>(ny_ * 4, kMaxCellsPerAxis);
  const Vec2 sat_ext = bounds_.extent();
  inv_sat_w_ = static_cast<double>(sat_nx_) / sat_ext.x;
  inv_sat_h_ = static_cast<double>(sat_ny_) / sat_ext.y;
  std::vector<std::uint64_t> sat_counts(sat_nx_ * sat_ny_, 0);
  for (std::size_t pi = 0; pi < polygons_.size(); ++pi) {
    std::size_t x0, x1, y0, y1;
    sat_range(inflate(polygons_[pi].bbox(), kMargin), x0, x1, y0, y1);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) {
        ++sat_counts[cy * sat_nx_ + cx];
      }
    }
  }
  const std::size_t stride = sat_nx_ + 1;
  content_sat_.assign(stride * (sat_ny_ + 1), 0);
  for (std::size_t cy = 0; cy < sat_ny_; ++cy) {
    for (std::size_t cx = 0; cx < sat_nx_; ++cx) {
      const std::uint64_t count = sat_counts[cy * sat_nx_ + cx];
      content_sat_[(cy + 1) * stride + (cx + 1)] =
          count + content_sat_[cy * stride + (cx + 1)] +
          content_sat_[(cy + 1) * stride + cx] -
          content_sat_[cy * stride + cx];
    }
  }
}

std::size_t SegmentIndex::cell_of(Vec2 p) const {
  const std::size_t cx = clamp_idx((p.x - bounds_.lo.x) * inv_cell_w_, nx_);
  const std::size_t cy = clamp_idx((p.y - bounds_.lo.y) * inv_cell_h_, ny_);
  return cy * nx_ + cx;
}

void SegmentIndex::cell_range(const BBox& box, std::size_t& x0, std::size_t& x1,
                              std::size_t& y0, std::size_t& y1) const {
  x0 = clamp_idx((box.lo.x - bounds_.lo.x) * inv_cell_w_, nx_);
  x1 = clamp_idx((box.hi.x - bounds_.lo.x) * inv_cell_w_, nx_);
  y0 = clamp_idx((box.lo.y - bounds_.lo.y) * inv_cell_h_, ny_);
  y1 = clamp_idx((box.hi.y - bounds_.lo.y) * inv_cell_h_, ny_);
}

bool SegmentIndex::segment_blocked_cold(const Segment& seg,
                                        const BBox& sb) const {
  // The hot path replicates Polygon::blocks_segment polygon by polygon,
  // restricted to the polygons registered in the cells of the
  // (kMargin-inflated) segment bbox. Any polygon able to pass
  // blocks_segment's own bbox gate has an inflated bbox overlapping the
  // query's, so its cell range shares at least one cell with the query's
  // and the walk reaches it; it is tested only in the first shared cell,
  // (max(x0, its column), max(y0, its row)), so exactly once. The walked
  // set is thus the set of polygons the full scan would do exact work on.
  //
  // Per polygon, apply the bbox gate -- operation-for-operation
  // BBox::intersects(sb, kEps) -- then replicate the blocks_segment body
  // over the polygon's own contiguous edge range: collect
  // boundary-intersection parameters, sort, and test sub-segment midpoints
  // against the interior. Each edge is tested once, in polygon order,
  // exactly as the original; obstacle polygons are small, so no per-edge
  // spatial pruning is needed beyond a conservative slab-clip gate (any
  // witness the eps-tolerant predicate can report lies within far less
  // than kMargin of both segments, so clipping the query against the
  // kMargin-inflated edge bbox never drops a reportable intersection).
  // Polygons with more edges than the stack buffer holds run the
  // reference routine itself.
  std::size_t x0, x1, y0, y1;
  cell_range(inflate(sb, kMargin), x0, x1, y0, y1);

  const Vec2 d = seg.direction();
  const double len2 = d.norm2();
  // Inlined replica of segment_intersection_point(seg, edge, kEps) with
  // the edge norms precomputed and the query norm computed lazily on first
  // use (std::hypot dominates the original's cost); operations and their
  // order match exactly, so the returned witness -- and therefore every
  // downstream double -- is bit-identical. The t/u window test is
  // evaluated arithmetically: same comparisons, no short-circuit branches.
  double r_norm = -1.0;
  // Upper bound on the query norm (|dx|+|dy| >= hypot, with generous slack
  // for rounding): lets the non-parallel test below accept without ever
  // evaluating the hypot, which would otherwise dominate this replica.
  const double r_norm_up = (std::abs(d.x) + std::abs(d.y)) * (1.0 + 1e-9);
  const auto isect = [&](std::uint32_t id) -> std::optional<Vec2> {
    const Vec2 s = edge_dir_[id];
    const double denom = d.cross(s);
    const Vec2 qp = edge_segs_[id].a - seg.a;
    // A scale upper bound makes the threshold conservatively harder;
    // passing it implies passing the reference's exact test, so the t/u
    // path (identical operations) runs with no behavioral difference.
    const double scale_up = std::max(std::max(r_norm_up, edge_norm_[id]), 1.0);
    double scale = scale_up;
    if (std::abs(denom) <= geom::kEps * scale_up * scale_up) {
      // Near the threshold: redo the test with the exact scale.
      if (r_norm < 0.0) r_norm = d.norm();
      scale = std::max(std::max(r_norm, edge_norm_[id]), 1.0);
    }
    if (std::abs(denom) > geom::kEps * scale * scale) {
      const double t = qp.cross(s) / denom;
      const double u = qp.cross(d) / denom;
      constexpr double slack = geom::kEps;
      const unsigned inside = static_cast<unsigned>(t >= -slack) &
                              static_cast<unsigned>(t <= 1.0 + slack) &
                              static_cast<unsigned>(u >= -slack) &
                              static_cast<unsigned>(u <= 1.0 + slack);
      if (inside) {
        return seg.point_at(std::clamp(t, 0.0, 1.0));
      }
      return std::nullopt;
    }
    const Segment& es = edge_segs_[id];
    if (geom::on_segment(es.a, seg)) return es.a;
    if (geom::on_segment(es.b, seg)) return es.b;
    if (geom::on_segment(seg.a, es)) return seg.a;
    if (geom::on_segment(seg.b, es)) return seg.b;
    return std::nullopt;
  };
  const SegmentClipper clip(seg);
  // Polygon pi blocks seg: the blocks_segment body past its bbox gate.
  const auto blocks = [&](std::uint32_t pi) {
    if (len2 <= 0.0) return poly_contains_interior(pi, seg.a);
    const std::uint32_t e0 = poly_edge_start_[pi];
    const std::uint32_t e1 = poly_edge_start_[pi + 1];
    if (e1 - e0 > kSmall) return polygons_[pi].blocks_segment(seg);
    // Sub-segment parameters: endpoints plus this polygon's boundary
    // intersections, exactly as in blocks_segment. The slab-clip gate
    // skips the exact test for edges the query segment cannot reach.
    double ts[kSmall + 2];
    std::size_t n_ts = 0;
    ts[n_ts++] = 0.0;
    ts[n_ts++] = 1.0;
    for (std::uint32_t id = e0; id < e1; ++id) {
      if (!clip.overlaps(edge_gate_bbox_[id])) continue;
      if (auto p = isect(id)) {
        ts[n_ts++] = std::clamp((*p - seg.a).dot(d) / len2, 0.0, 1.0);
      }
    }
    // Insertion sort: n_ts is tiny (2 + this polygon's hits) and ts[0..1]
    // start sorted; std::sort's dispatch overhead is measurable here.
    for (std::size_t i = 2; i < n_ts; ++i) {
      const double v = ts[i];
      std::size_t j = i;
      while (j > 0 && ts[j - 1] > v) {
        ts[j] = ts[j - 1];
        --j;
      }
      ts[j] = v;
    }
    for (std::size_t i = 0; i + 1 < n_ts; ++i) {
      if (ts[i + 1] - ts[i] <= geom::kEps) continue;
      if (poly_contains_interior(pi, seg.point_at(0.5 * (ts[i] + ts[i + 1])))) {
        return true;
      }
    }
    return false;
  };

  for (std::size_t cy = y0; cy <= y1; ++cy) {
    for (std::size_t cx = x0; cx <= x1; ++cx) {
      for (const std::uint32_t pi : polys_in_cell(cy * nx_ + cx)) {
        const FirstCell first = poly_first_cell_[pi];
        const BBox& pb = poly_bbox_[pi];
        if (std::max<std::size_t>(x0, first.x) == cx &&
            std::max<std::size_t>(y0, first.y) == cy &&
            pb.lo.x <= sb.hi.x + geom::kEps &&
            sb.lo.x <= pb.hi.x + geom::kEps &&
            pb.lo.y <= sb.hi.y + geom::kEps &&
            sb.lo.y <= pb.hi.y + geom::kEps && blocks(pi)) {
          return true;
        }
      }
    }
  }
  return false;
}

bool SegmentIndex::poly_contains_interior(std::uint32_t pi, Vec2 p) const {
  if (!poly_bbox_[pi].contains(p, geom::kEps)) return false;
  const std::uint32_t e0 = poly_edge_start_[pi];
  const std::uint32_t e1 = poly_edge_start_[pi + 1];
  // Conservative boundary prefilter on *squared* point-edge distance: the
  // reference on_segment compares the hypot-ed distance against kEps, so a
  // squared threshold of (2*kEps)^2 leaves kEps of absolute slack — orders
  // of magnitude above both hypot's rounding and the ~1e-15 drift from the
  // reciprocal-multiply projection below. Every near test passing means
  // on_boundary is false without a single division or hypot.
  // The crossing-number toggle rides along in the same pass, identical
  // expressions to the reference (edge_dir_ stores the same b - a the
  // reference recomputes); the toggle is arithmetic because the crossing
  // pattern is data dependent, with x_at's value masked out on
  // non-crossing edges. It is only valid when no edge is near.
  constexpr double kNearSq = 4.0 * geom::kEps * geom::kEps;
  unsigned near_boundary = 0;
  unsigned inside = 0;
  for (std::uint32_t id = e0; id < e1; ++id) {
    const Segment& es = edge_segs_[id];
    const Vec2 d = edge_dir_[id];
    const double t = std::clamp(
        ((p.x - es.a.x) * d.x + (p.y - es.a.y) * d.y) * edge_inv_len2_[id],
        0.0, 1.0);
    const double dx = p.x - (es.a.x + d.x * t);
    const double dy = p.y - (es.a.y + d.y * t);
    near_boundary |= static_cast<unsigned>(dx * dx + dy * dy <= kNearSq);
    const unsigned crosses = static_cast<unsigned>(es.a.y > p.y) ^
                             static_cast<unsigned>(es.b.y > p.y);
    const double x_at = es.a.x + (p.y - es.a.y) * d.x / d.y;
    inside ^= crosses & static_cast<unsigned>(x_at > p.x);
  }
  if (near_boundary) return polygons_[pi].contains_interior(p);
  return inside != 0;
}

bool SegmentIndex::point_in_any_cold(Vec2 p) const {
  // Every polygon able to contain p is registered in p's cell.
  for (const std::uint32_t pi : polys_in_cell(cell_of(p))) {
    if (poly_bbox_[pi].contains(p, kMargin) && polygons_[pi].contains(p))
      return true;
  }
  return false;
}

std::vector<std::size_t> SegmentIndex::polygons_in_box(const BBox& box) const {
  std::vector<std::size_t> out;
  if (polygons_.empty()) return out;
  std::size_t x0, x1, y0, y1;
  cell_range(inflate(box, kMargin), x0, x1, y0, y1);
  std::vector<std::uint32_t> candidates;
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    for (std::size_t cx = x0; cx <= x1; ++cx) {
      const auto cell = polys_in_cell(cy * nx_ + cx);
      candidates.insert(candidates.end(), cell.begin(), cell.end());
    }
  }
  sort_unique(candidates);
  for (std::uint32_t pi : candidates) {
    if (polygons_[pi].bbox().intersects(box, kMargin)) out.push_back(pi);
  }
  return out;
}

std::vector<std::size_t> SegmentIndex::polygons_near(Vec2 p,
                                                     double radius) const {
  HIPO_REQUIRE(radius >= 0.0, "radius must be non-negative");
  BBox box;
  box.lo = p - Vec2{radius, radius};
  box.hi = p + Vec2{radius, radius};
  std::vector<std::size_t> out;
  for (std::size_t pi : polygons_in_box(box)) {
    if (boundary_distance(pi, p) <= radius) out.push_back(pi);
  }
  return out;
}

double SegmentIndex::boundary_distance(std::size_t polygon, Vec2 p) const {
  HIPO_ASSERT(polygon < polygons_.size());
  const auto& h = polygons_[polygon];
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < h.size(); ++e) {
    best = std::min(best, geom::point_segment_distance(p, h.edge(e)));
  }
  return best;
}

}  // namespace hipo::spatial
