#include "src/pdcs/point_case.hpp"

#include <algorithm>
#include <cmath>

#include "src/geometry/angles.hpp"
#include "src/geometry/gates.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs {

using geom::Vec2;

namespace {

/// Eq. (1)'s range and receiving-sector conditions in their exact form (as
/// Scenario::coverage_geometry states them), for a device at offset `so`
/// and distance d = |so| from the charger. The fast gates defer to it
/// inside their bands.
bool exact_gates(const model::ChargerType& ct, double recv_angle,
                 double orientation, Vec2 so, double d) {
  if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
    return false;
  if (d <= geom::kEps) return false;
  if (recv_angle < geom::kTwoPi) {
    const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
    const double chg_angle = geom::angle_distance((-so).angle(), orientation);
    if (chg_angle > recv_angle / 2.0 + ang_eps) return false;
  }
  return true;
}

}  // namespace

std::size_t PointSweep::gather(const model::Scenario& scenario, std::size_t q,
                               Vec2 pos, std::span<const std::size_t> pool) {
  const auto& ct = scenario.charger_type(q);
  const geom::RingGate range = geom::range_gate(ct.d_min, ct.d_max);
  q_ = q;
  alpha_ = ct.angle;
  pos_ = pos;
  coverable_.clear();
  for (std::size_t j : pool) {
    const auto& dev = scenario.device(j);
    const Vec2 so = dev.pos - pos;
    const double d2 = so.norm2();
    // Range and receiving sector by squared distance and a dot product;
    // only a device in a gate's band pays the exact hypot/atan2 test.
    geom::Gate gate = range(d2);
    if (gate == geom::Gate::kFail) continue;
    const double recv_angle = scenario.device_type(dev.type).angle;
    if (recv_angle < geom::kTwoPi) {
      const geom::Gate cone =
          scenario.receiving_cone(dev.type)(-so, d2, scenario.facing(j));
      if (cone == geom::Gate::kFail) continue;
      if (cone == geom::Gate::kExact) gate = cone;
    }
    const double d = so.norm();
    if (gate == geom::Gate::kExact) {
      ++exact_band_;
      if (!exact_gates(ct, recv_angle, dev.orientation, so, d)) continue;
    }
    if (!scenario.line_of_sight(pos, dev.pos)) continue;
    const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
    // The bearing feeds only the charger-sector test, which a full-circle
    // charger skips.
    const double bearing = alpha_ < geom::kTwoPi ? so.angle() : 0.0;
    coverable_.push_back({j, bearing, geom::norm_angle(bearing), ang_eps,
                          scenario.approx_power_from_distance(q, j, d)});
  }
  return coverable_.size();
}

std::size_t PointSweep::sweep(RowArena& out) {
  if (coverable_.empty()) return 0;
  const bool full = alpha_ >= geom::kTwoPi;
  const double half = alpha_ / 2.0;

  // Candidate orientations: for each device, the orientation at which it is
  // about to fall out of the *clockwise* boundary when rotating CCW — that
  // is φ = θ_j + α/2 (the covering interval's end). A full-circle charger
  // has a single orientation class.
  orientations_.clear();
  if (full) {
    orientations_.push_back(0.0);
  } else {
    for (const Coverable& c : coverable_) {
      orientations_.push_back(geom::norm_angle(c.theta + half));
    }
    std::sort(orientations_.begin(), orientations_.end());
    orientations_.erase(
        std::unique(orientations_.begin(), orientations_.end(),
                    [](double a, double b) { return std::abs(a - b) <= 1e-12; }),
        orientations_.end());
  }

  // One covered set per orientation, appended in orientation order. A
  // device is covered iff it passes the sweep's own boundary-inclusive test
  // on θ (the device "about to fall out" still counts, matching Algorithm
  // 1) and Eq. (1)'s charger-sector test on the raw bearing — the only
  // orientation-dependent gate of Scenario::approx_power; range, receiving
  // sector and line of sight were settled by gather(). Sets that are not
  // maximal at this position are left to the caller's DominanceFilter
  // (ALGORITHMS.md, Task pass), and the arena drops repeats.
  std::size_t emitted = 0;
  for (double phi : orientations_) {
    out.begin_row(model::Strategy{pos_, phi, q_});
    bool any = false;
    for (const Coverable& c : coverable_) {
      if (!full && (geom::angle_distance(c.theta, phi) > half + 1e-9 ||
                    geom::angle_distance(c.bearing, phi) > half + c.ang_eps))
        continue;
      if (!(c.power > 0.0)) continue;
      out.push(c.device, c.power);
      any = true;
    }
    out.end_row();
    if (any) ++emitted;
  }
  return emitted;
}

std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           Vec2 pos,
                                           std::span<const std::size_t> pool) {
  PointSweep sweep;
  std::vector<std::size_t> out(
      sweep.gather(scenario, charger_type, pos, pool));
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = sweep.device(k);
  return out;
}

std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type,
                                          Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* /*ignored*/) {
  std::vector<Candidate> out;
  if (!scenario.position_feasible(pos)) return out;
  // Per-thread buffers: callers run this once per position, and a fresh
  // filter and arena per call cost more than the sweep.
  thread_local PointSweep sweep;
  thread_local RowArena rows;
  thread_local DominanceFilter filter;
  rows.clear();
  sweep.gather(scenario, charger_type, pos, pool);
  sweep.sweep(rows);
  // The sweep emits every orientation's covered set; the filter keeps the
  // maximal ones (all rows here give a device the same power, so dominance
  // is set inclusion), in its admission order.
  const auto row_at = [&](std::size_t r) { return rows.view(r); };
  for (std::size_t r : filter.run(RowSource(rows.size(), row_at),
                                  scenario.num_devices())) {
    out.push_back(rows.materialize(r));
  }
  return out;
}

}  // namespace hipo::pdcs
