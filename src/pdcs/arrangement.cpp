#include "src/pdcs/arrangement.hpp"

#include <cmath>
#include <unordered_set>

#include "src/geometry/angles.hpp"
#include "src/geometry/circle.hpp"
#include "src/obs/trace.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs {

using geom::Circle;
using geom::Segment;
using geom::Vec2;

namespace {

/// Deduplicating collector of feasible positions within range of a device.
class VertexSink {
 public:
  VertexSink(const model::Scenario& scenario,
             const spatial::GridIndex& devices, double range)
      : scenario_(scenario), devices_(devices), range_(range) {}

  void add(Vec2 p) {
    if (!scenario_.position_feasible(p)) return;
    // Keep only vertices that could cover at least one device.
    if (devices_.query_radius(p, range_).empty()) return;
    // Disjoint 32-bit lanes (see PositionSink::quantize): collision-free
    // keys at ~1e-6 resolution within |coords| < ~2147 m.
    const auto qx = static_cast<std::int64_t>(std::llround(p.x * 1e6));
    const auto qy = static_cast<std::int64_t>(std::llround(p.y * 1e6));
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(qx)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(qy));
    if (seen_.insert(key).second) vertices_.push_back(p);
  }

  void add_all(const std::vector<Vec2>& ps) {
    for (Vec2 p : ps) add(p);
  }

  std::vector<Vec2> take() { return std::move(vertices_); }

 private:
  const model::Scenario& scenario_;
  const spatial::GridIndex& devices_;
  double range_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<Vec2> vertices_;
};

/// A boundary ray of the arrangement: sector boundary or hole boundary.
struct BoundaryRay {
  Vec2 origin;
  double angle;
  double max_t;  // rays are clipped at charging range
};

}  // namespace

std::vector<Vec2> arrangement_vertices(const model::Scenario& scenario,
                                       std::size_t q,
                                       const ArrangementOptions& opt) {
  HIPO_REQUIRE(q < scenario.num_charger_types(), "charger type out of range");
  const auto& ct = scenario.charger_type(q);

  VertexSink sink(scenario, scenario.device_index(),
                  ct.d_max + geom::kCoverEps);

  // Collect the boundary curves.
  std::vector<Circle> circles;
  std::vector<BoundaryRay> rays;
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    const auto& dev = scenario.device(j);
    for (double r : ring_radii(scenario, q, j)) {
      if (r > geom::kEps) circles.emplace_back(dev.pos, r);
    }
    // Receiving-sector boundary rays.
    const double alpha_o = scenario.device_type(dev.type).angle;
    if (alpha_o < geom::kTwoPi) {
      rays.push_back({dev.pos, dev.orientation - alpha_o / 2.0, ct.d_max});
      rays.push_back({dev.pos, dev.orientation + alpha_o / 2.0, ct.d_max});
    }
    // Hole-boundary rays: through obstacle vertices within range (index
    // pruned; the per-vertex distance filter matches the full scan).
    const auto& obs_index = scenario.obstacle_index();
    geom::BBox near;
    near.lo = dev.pos - Vec2{ct.d_max, ct.d_max};
    near.hi = dev.pos + Vec2{ct.d_max, ct.d_max};
    for (std::size_t pi : obs_index.polygons_in_box(near)) {
      for (const Vec2& v : obs_index.polygons()[pi].vertices()) {
        const double dist = geom::distance(v, dev.pos);
        if (dist > geom::kEps && dist <= ct.d_max) {
          rays.push_back({dev.pos, (v - dev.pos).angle(), ct.d_max});
        }
      }
    }
  }
  std::vector<Segment> edges;
  for (const auto& h : scenario.obstacles()) {
    for (std::size_t e = 0; e < h.size(); ++e) edges.push_back(h.edge(e));
  }

  // Pairwise intersections. Circle pairs are pruned by center distance.
  for (std::size_t a = 0; a < circles.size(); ++a) {
    for (std::size_t b = a + 1; b < circles.size(); ++b) {
      const double d = geom::distance(circles[a].center, circles[b].center);
      if (d > circles[a].radius + circles[b].radius) continue;
      sink.add_all(geom::circle_circle_intersections(circles[a], circles[b]));
    }
    for (const auto& ray : rays) {
      for (Vec2 p : geom::circle_line_intersections(circles[a], ray.origin,
                                                    geom::unit_vector(ray.angle))) {
        const double t = (p - ray.origin).dot(geom::unit_vector(ray.angle));
        if (t >= -geom::kEps && t <= ray.max_t + geom::kEps) sink.add(p);
      }
    }
    for (const auto& edge : edges) {
      sink.add_all(geom::circle_segment_intersections(circles[a], edge));
    }
    if (opt.sample_ring_arcs && opt.ring_arc_samples > 0) {
      for (int k = 0; k < opt.ring_arc_samples; ++k) {
        sink.add(circles[a].point_at(geom::kTwoPi * k /
                                     opt.ring_arc_samples));
      }
    }
  }
  // Ray × ray and ray × edge intersections.
  for (std::size_t a = 0; a < rays.size(); ++a) {
    const Vec2 da = geom::unit_vector(rays[a].angle);
    const Segment sa{rays[a].origin, rays[a].origin + da * rays[a].max_t};
    for (std::size_t b = a + 1; b < rays.size(); ++b) {
      const Vec2 db = geom::unit_vector(rays[b].angle);
      const Segment sb{rays[b].origin, rays[b].origin + db * rays[b].max_t};
      if (auto p = geom::segment_intersection_point(sa, sb)) sink.add(*p);
    }
    for (const auto& edge : edges) {
      if (auto p = geom::segment_intersection_point(sa, edge)) sink.add(*p);
    }
  }

  return sink.take();
}

std::vector<Candidate> extract_all_arrangement(
    const model::Scenario& scenario, const ArrangementOptions& opt) {
  const spatial::GridIndex& index = scenario.device_index();

  std::vector<Candidate> out;
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    obs::Span span("arrangement.type", static_cast<std::uint64_t>(q));
    const auto& ct = scenario.charger_type(q);
    model::LosCache los_cache(scenario);
    std::vector<Candidate> type_candidates;
    for (Vec2 p : arrangement_vertices(scenario, q, opt)) {
      const auto pool = index.query_radius(p, ct.d_max + geom::kCoverEps);
      auto cands = extract_point_case(scenario, q, p, pool, &los_cache);
      for (auto& c : cands) type_candidates.push_back(std::move(c));
    }
    auto kept = opt.global_filter
                    ? filter_dominated(std::move(type_candidates),
                                       scenario.num_devices())
                    : std::move(type_candidates);
    for (auto& c : kept) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace hipo::pdcs
