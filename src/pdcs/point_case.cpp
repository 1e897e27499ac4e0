#include "src/pdcs/point_case.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

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
  const std::size_t k = coverable_.size();
  if (k == 0) return 0;
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

  // One covered set per orientation. A device is covered iff it passes the
  // sweep's own boundary-inclusive test on θ (the device "about to fall
  // out" still counts, matching Algorithm 1) and Eq. (1)'s charger-sector
  // test on the raw bearing — the only orientation-dependent gate of
  // Scenario::approx_power; range, receiving sector and line of sight were
  // settled by gather().
  const std::size_t words = (k + 63) / 64;
  masks_.clear();
  rows_.clear();
  for (double phi : orientations_) {
    const std::size_t offset = masks_.size();
    masks_.resize(offset + words, 0);
    Row row{phi, 0.0, 0, static_cast<std::uint32_t>(offset)};
    for (std::size_t i = 0; i < k; ++i) {
      const Coverable& c = coverable_[i];
      if (!full && (geom::angle_distance(c.theta, phi) > half + 1e-9 ||
                    geom::angle_distance(c.bearing, phi) > half + c.ang_eps))
        continue;
      if (!(c.power > 0.0)) continue;
      masks_[offset + i / 64] |= std::uint64_t{1} << (i % 64);
      ++row.size;
      row.total_power += c.power;
    }
    if (row.size == 0) {
      masks_.resize(offset);
      continue;
    }
    rows_.push_back(row);
  }

  // The per-position dominance filter. Every row here gives each device the
  // same power, so ε-dominance is plain set inclusion: keep the distinct
  // maximal sets, ranked as filter_dominated ranks rows (size descending,
  // total power descending, emit order ascending).
  order_.resize(rows_.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (rows_[x].size != rows_[y].size) return rows_[x].size > rows_[y].size;
    if (rows_[x].total_power != rows_[y].total_power)
      return rows_[x].total_power > rows_[y].total_power;
    return x < y;
  });
  kept_.clear();
  for (std::uint32_t r : order_) {
    const std::uint64_t* mask = masks_.data() + rows_[r].mask;
    const bool dominated =
        std::any_of(kept_.begin(), kept_.end(), [&](std::uint32_t s) {
          const std::uint64_t* other = masks_.data() + rows_[s].mask;
          for (std::size_t w = 0; w < words; ++w) {
            if (mask[w] & ~other[w]) return false;
          }
          return true;
        });
    if (!dominated) kept_.push_back(r);
  }

  for (std::uint32_t r : kept_) {
    out.begin_row(model::Strategy{pos_, rows_[r].orientation, q_});
    const std::uint64_t* mask = masks_.data() + rows_[r].mask;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const Coverable& c =
            coverable_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        out.push(c.device, c.power);
      }
    }
  }
  return kept_.size();
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
  PointSweep sweep;
  RowArena rows;
  sweep.gather(scenario, charger_type, pos, pool);
  sweep.sweep(rows);
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out.push_back(rows.materialize(r));
  }
  return out;
}

}  // namespace hipo::pdcs
