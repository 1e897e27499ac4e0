#include "src/pdcs/candidate_gen.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/geometry/angles.hpp"
#include "src/geometry/circle.hpp"
#include "src/obs/metrics.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/util/error.hpp"
#include "src/util/flat_hash.hpp"

namespace hipo::pdcs {

using geom::Circle;
using geom::Segment;
using geom::Vec2;

double task_reach(const model::Scenario& scenario) {
  return 2.0 * scenario.max_charge_range() + 1e-3;
}

const std::vector<double>& ring_radii(const model::Scenario& scenario,
                                      std::size_t q, std::size_t j) {
  return scenario.ladder_for_device(q, j).boundaries();
}

namespace {

/// Deduplicating position collector with feasibility and range filters: a
/// position is kept only within `range` + kCoverEps of both anchors. One
/// sink serves every construction of a task: reset() starts a new anchor
/// pair and appends that pair's positions to `out`, deduplicated among
/// themselves in first-insertion order.
class PositionSink {
 public:
  void reset(const model::Scenario& scenario, Vec2 anchor_a, Vec2 anchor_b,
             double range, std::vector<Vec2>& out) {
    scenario_ = &scenario;
    a_ = anchor_a;
    b_ = anchor_b;
    reach_ = range + geom::kCoverEps;
    out_ = &out;
    seen_.clear();
  }

  void add(Vec2 p) {
    if (geom::distance(p, a_) > reach_ || geom::distance(p, b_) > reach_)
      return;
    if (!scenario_->position_feasible(p)) return;
    if (seen_.insert(quantize(p), true)) out_->push_back(p);
  }

  void add_all(const std::vector<Vec2>& ps) {
    for (Vec2 p : ps) add(p);
  }

 private:
  static std::uint64_t quantize(Vec2 p) {
    // ~1e-6 spatial resolution; duplicates closer than this behave
    // identically for coverage purposes. The two quantized coordinates are
    // packed into disjoint 32-bit lanes so distinct grid cells always get
    // distinct keys (a multiply-xor combine can collide and silently drop
    // candidate positions); 32 bits per lane covers |coords| < ~2147 m at
    // this resolution, far beyond the paper's O(100 m) scenarios.
    const auto qx = static_cast<std::int64_t>(std::llround(p.x * 1e6));
    const auto qy = static_cast<std::int64_t>(std::llround(p.y * 1e6));
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(qx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(qy));
  }
  struct KeyHash {
    std::uint64_t operator()(std::uint64_t key) const { return key; }
  };

  const model::Scenario* scenario_ = nullptr;
  Vec2 a_;
  Vec2 b_;
  double reach_ = 0.0;
  std::vector<Vec2>* out_ = nullptr;
  util::FlatMap<std::uint64_t, bool, KeyHash> seen_;
};

/// Axis-aligned box covering the disks of `range` around both anchors.
geom::BBox anchor_box(Vec2 a, Vec2 b, double range) {
  geom::BBox box;
  box.lo = {std::min(a.x, b.x) - range, std::min(a.y, b.y) - range};
  box.hi = {std::max(a.x, b.x) + range, std::max(a.y, b.y) + range};
  return box;
}

/// Axis-aligned box covering the lens where the disks of `range` around
/// both anchors overlap (non-empty when |a − b| <= 2·range).
geom::BBox lens_box(Vec2 a, Vec2 b, double range) {
  geom::BBox box;
  box.lo = {std::max(a.x, b.x) - range, std::max(a.y, b.y) - range};
  box.hi = {std::min(a.x, b.x) + range, std::min(a.y, b.y) + range};
  return box;
}

/// Buffers the position constructions reuse between calls.
struct PositionScratch {
  PositionSink sink;
  std::vector<Segment> edges;
  std::vector<Circle> circles;
  std::vector<double> dirs;
};

/// Obstacle edges within `reach` of both anchors, into `edges`: an edge
/// that misses either disk has no point in the lens the sink keeps. The
/// obstacle index prunes to polygons near the lens; the exact per-edge
/// distance filter (and hence the resulting edge list and its order)
/// matches the full scan.
void nearby_obstacle_edges(const model::Scenario& scenario, Vec2 a, Vec2 b,
                           double reach, std::vector<Segment>& edges) {
  const auto& index = scenario.obstacle_index();
  edges.clear();
  for (std::size_t pi : index.polygons_in_box(lens_box(a, b, reach))) {
    const auto& h = index.polygons()[pi];
    for (std::size_t e = 0; e < h.size(); ++e) {
      const Segment seg = h.edge(e);
      if (geom::point_segment_distance(a, seg) <= reach &&
          geom::point_segment_distance(b, seg) <= reach) {
        edges.push_back(seg);
      }
    }
  }
}

/// pair_candidate_positions, appended to `out`.
void append_pair_positions(const model::Scenario& scenario, std::size_t q,
                           std::size_t i, std::size_t j,
                           const ExtractOptions& opt, PositionScratch& scratch,
                           std::vector<Vec2>& out) {
  const Vec2 oi = scenario.device(i).pos;
  const Vec2 oj = scenario.device(j).pos;
  const auto& ct = scenario.charger_type(q);
  const double reach = ct.d_max + geom::kCoverEps;
  const double chord = geom::distance(oi, oj);
  if (chord > 2.0 * reach) return;  // empty lens
  PositionSink& sink = scratch.sink;
  sink.reset(scenario, oi, oj, ct.d_max, out);

  const std::vector<double>& ri = ring_radii(scenario, q, i);
  const std::vector<double>& rj = ring_radii(scenario, q, j);
  const std::vector<Segment>& edges = scratch.edges;
  nearby_obstacle_edges(scenario, oi, oj, reach, scratch.edges);

  // Ring circles of both devices: o_i's first, then o_j's. A ring shorter
  // than chord − reach stays farther than reach from the other anchor, so
  // none of its points lies in the lens.
  std::vector<Circle>& circles = scratch.circles;
  circles.clear();
  for (double r : ri)
    if (r > geom::kEps && r >= chord - reach) circles.emplace_back(oi, r);
  const std::size_t num_ri = circles.size();
  for (double r : rj)
    if (r > geom::kEps && r >= chord - reach) circles.emplace_back(oj, r);
  const std::span<const Circle> rings_i(circles.data(), num_ri);
  const std::span<const Circle> rings_j(circles.data() + num_ri,
                                        circles.size() - num_ri);

  // Inscribed-angle circles: points seeing the pair under the charging
  // angle α_q.
  std::vector<Circle> arcs;
  if ((opt.use_pair_arcs || opt.use_sector_rays) &&
      ct.angle < geom::kPi - 1e-9 && chord > geom::kEps) {
    arcs = geom::inscribed_angle_circles(oi, oj, ct.angle);
  }

  // (a) Ring × ring intersections (Algorithm 4 step 9).
  if (opt.use_ring_ring) {
    for (const Circle& c1 : rings_i) {
      for (const Circle& c2 : rings_j) {
        sink.add_all(geom::circle_circle_intersections(c1, c2));
      }
    }
  }

  // (b) The straight line through the pair (Algorithm 4 steps 3–5):
  // intersections with ring circles and with obstacle edges.
  if (opt.use_pair_line) {
    const Vec2 dir = oj - oi;
    if (dir.norm() > geom::kEps) {
      for (const Circle& c : circles) {
        sink.add_all(geom::circle_line_intersections(c, oi, dir));
      }
      for (const Segment& e : edges) {
        sink.add_all(geom::line_segment_intersections(oi, dir, e));
      }
    }
  }

  // (c) Inscribed-angle arcs (Algorithm 4 steps 6–8): circles through the
  // pair seen under the charging angle α_q; intersect with ring circles and
  // obstacle edges, plus interior samples.
  if (opt.use_pair_arcs && !arcs.empty()) {
    for (const Circle& arc : arcs) {
      for (const Circle& c : circles) {
        sink.add_all(geom::circle_circle_intersections(arc, c));
      }
      for (const Segment& e : edges) {
        sink.add_all(geom::circle_segment_intersections(arc, e));
      }
    }
    if (opt.arc_samples > 0) {
      sink.add_all(geom::inscribed_angle_arc_points(oi, oj, ct.angle,
                                                    opt.arc_samples));
    }
  }

  // (d) Ring × obstacle-edge intersections and hole-boundary rays
  // (Algorithm 4 step 10). The hole boundary behind an obstacle w.r.t. a
  // device is carried by rays through obstacle vertices; candidates sit
  // where those rays cross ring radii.
  if (opt.use_obstacle_ring) {
    for (const Circle& c : circles) {
      for (const Segment& e : edges) {
        sink.add_all(geom::circle_segment_intersections(c, e));
      }
    }
    const auto& index = scenario.obstacle_index();
    for (std::size_t pi :
         index.polygons_in_box(anchor_box(oi, oj, ct.d_max))) {
      const auto& h = index.polygons()[pi];
      for (const Vec2& v : h.vertices()) {
        for (int anchor = 0; anchor < 2; ++anchor) {
          const Vec2 o = anchor == 0 ? oi : oj;
          const auto& radii = anchor == 0 ? ri : rj;
          const Vec2 dir = v - o;
          const double dist = dir.norm();
          if (dist <= geom::kEps || dist > ct.d_max) continue;
          const Vec2 u = dir / dist;
          for (double r : radii) {
            if (r > dist) sink.add(o + u * r);
          }
        }
      }
    }
  }

  // (e) Receiving-sector sides (Section 4.1.2): each anchor's straight
  // area boundaries φ_o ± α_o/2, as segments of length d_max, intersected
  // with the other anchor's ring circles, the inscribed-angle circles and
  // obstacle edges. The anchor's own rings along these sides are the
  // singleton's samples.
  if (opt.use_sector_rays) {
    for (int anchor = 0; anchor < 2; ++anchor) {
      const auto& dev = scenario.device(anchor == 0 ? i : j);
      const double alpha_o = scenario.device_type(dev.type).angle;
      if (alpha_o >= geom::kTwoPi) continue;
      const std::span<const Circle> other = anchor == 0 ? rings_j : rings_i;
      for (const double side : {dev.orientation - alpha_o / 2.0,
                                dev.orientation + alpha_o / 2.0}) {
        const Segment ray(dev.pos,
                          dev.pos + geom::unit_vector(side) * ct.d_max);
        for (const Circle& c : other) {
          sink.add_all(geom::circle_segment_intersections(c, ray));
        }
        for (const Circle& arc : arcs) {
          sink.add_all(geom::circle_segment_intersections(arc, ray));
        }
        for (const Segment& e : edges) {
          if (const auto x = geom::segment_intersection_point(ray, e)) {
            sink.add(*x);
          }
        }
      }
    }
  }
}

/// singleton_candidate_positions, appended to `out`.
void append_singleton_positions(const model::Scenario& scenario,
                                std::size_t q, std::size_t i,
                                const ExtractOptions& opt,
                                PositionScratch& scratch,
                                std::vector<Vec2>& out) {
  const auto& dev = scenario.device(i);
  const auto& ct = scenario.charger_type(q);
  PositionSink& sink = scratch.sink;
  sink.reset(scenario, dev.pos, dev.pos, ct.d_max, out);

  // Directions: evenly spaced azimuths across the receiving sector
  // (boundaries included) plus obstacle-vertex (hole boundary) directions
  // within range.
  const double alpha_o = scenario.device_type(dev.type).angle;
  const int n_az = std::max(2, opt.singleton_azimuths);
  std::vector<double>& dirs = scratch.dirs;
  dirs.clear();
  if (alpha_o >= geom::kTwoPi) {
    for (int k = 0; k < n_az; ++k) {
      dirs.push_back(geom::kTwoPi * static_cast<double>(k) / n_az);
    }
  } else {
    const double start = dev.orientation - alpha_o / 2.0;
    for (int k = 0; k < n_az; ++k) {
      dirs.push_back(start + alpha_o * static_cast<double>(k) / (n_az - 1));
    }
  }
  const auto& index = scenario.obstacle_index();
  for (std::size_t pi :
       index.polygons_in_box(anchor_box(dev.pos, dev.pos, ct.d_max))) {
    for (const Vec2& v : index.polygons()[pi].vertices()) {
      const double dist = geom::distance(v, dev.pos);
      if (dist > geom::kEps && dist <= ct.d_max) {
        dirs.push_back((v - dev.pos).angle());
      }
    }
  }

  for (double r : ring_radii(scenario, q, i)) {
    if (r <= geom::kEps) continue;
    for (double a : dirs) {
      sink.add(dev.pos + geom::unit_vector(a) * r);
    }
  }
}

/// Everything an extraction task reuses between its positions.
struct TaskScratch {
  std::vector<std::size_t> neighbors;
  std::vector<std::size_t> pool;
  std::vector<Vec2> positions;
  PositionScratch gen;
  PointSweep sweep;
  RowArena rows;
  DominanceFilter filter;
};

}  // namespace

std::vector<Vec2> pair_candidate_positions(const model::Scenario& scenario,
                                           std::size_t q, std::size_t i,
                                           std::size_t j,
                                           const ExtractOptions& opt) {
  PositionScratch scratch;
  std::vector<Vec2> out;
  append_pair_positions(scenario, q, i, j, opt, scratch, out);
  return out;
}

std::vector<Vec2> singleton_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    const ExtractOptions& opt) {
  PositionScratch scratch;
  std::vector<Vec2> out;
  append_singleton_positions(scenario, q, i, opt, scratch, out);
  return out;
}

std::vector<Candidate> extract_device_task(const model::Scenario& scenario,
                                           const spatial::GridIndex& devices,
                                           std::size_t i,
                                           const ExtractOptions& opt) {
  // Per task, not per thread: keeping the buffers alive between tasks held
  // every worker's largest task in memory and measured slower.
  TaskScratch s;
  std::vector<Candidate> out;
  const Vec2 oi = scenario.device(i).pos;
  std::size_t num_positions = 0;
  std::size_t num_rows = 0;

  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    const auto& ct = scenario.charger_type(q);
    // Neighbor set O^k_i: devices within 2·d^k_max (Algorithm 4 step 1).
    devices.query_radius(oi, 2.0 * ct.d_max, s.neighbors);

    s.positions.clear();
    if (opt.use_singleton) {
      append_singleton_positions(scenario, q, i, opt, s.gen, s.positions);
    }
    for (std::size_t j : s.neighbors) {
      if (j <= i) continue;  // larger indices only — no duplicate tasks
      append_pair_positions(scenario, q, i, j, opt, s.gen, s.positions);
    }

    // Algorithm 1 at every position (all already feasible: the sink
    // filters), each position's maximal sets appended to the task arena.
    s.rows.clear();
    for (Vec2 p : s.positions) {
      // Pool: devices within charging range of the position (exact pool for
      // the rotational sweep; sorted by GridIndex contract).
      devices.query_radius(p, ct.d_max + geom::kCoverEps, s.pool);
      s.sweep.gather(scenario, q, p, s.pool);
      s.sweep.sweep(s.rows);
    }
    num_positions += s.positions.size();
    num_rows += s.rows.size();

    // The per-task filter; only its survivors become Candidates.
    const auto row_at = [&](std::size_t r) { return s.rows.view(r); };
    for (std::size_t r : s.filter.run(RowSource(s.rows.size(), row_at),
                                      scenario.num_devices())) {
      out.push_back(s.rows.materialize(r));
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& positions = obs::counter("extract.positions");
    static obs::Counter& rows = obs::counter("extract.point_case_rows");
    positions.bump(num_positions);
    rows.bump(num_rows);
  }
  return out;
}

}  // namespace hipo::pdcs
