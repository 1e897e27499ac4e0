#include "src/model/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/geometry/angles.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/error.hpp"

namespace hipo::model {

using geom::SectorRing;
using geom::Vec2;

Scenario::Scenario(Config config)
    : charger_types_(std::move(config.charger_types)),
      device_types_(std::move(config.device_types)),
      pair_params_(std::move(config.pair_params)),
      charger_counts_(std::move(config.charger_counts)),
      devices_(std::move(config.devices)),
      region_(config.region),
      eps1_(config.eps1) {
  HIPO_REQUIRE(!charger_types_.empty(), "need at least one charger type");
  HIPO_REQUIRE(!device_types_.empty(), "need at least one device type");
  HIPO_REQUIRE(pair_params_.size() ==
                   charger_types_.size() * device_types_.size(),
               "pair_params must be a [charger × device] table");
  HIPO_REQUIRE(charger_counts_.size() == charger_types_.size(),
               "charger_counts must match charger_types");
  HIPO_REQUIRE(region_.hi.x > region_.lo.x && region_.hi.y > region_.lo.y,
               "region must be non-degenerate");
  HIPO_REQUIRE(eps1_ > 0.0, "ε₁ must be positive");
  for (int count : charger_counts_)
    HIPO_REQUIRE(count >= 0, "charger counts must be non-negative");
  for (const auto& ct : charger_types_) {
    HIPO_REQUIRE(ct.angle > 0.0 && ct.angle <= geom::kTwoPi,
                 "charger angle must be in (0, 2π]");
    HIPO_REQUIRE(ct.d_min >= 0.0 && ct.d_max > ct.d_min,
                 "charger needs 0 <= d_min < d_max");
  }
  for (const auto& dt : device_types_) {
    HIPO_REQUIRE(dt.angle > 0.0 && dt.angle <= geom::kTwoPi,
                 "device angle must be in (0, 2π]");
  }
  for (const auto& h : config.obstacles) {
    for (const Vec2 v : h.vertices()) {
      HIPO_REQUIRE(std::isfinite(v.x) && std::isfinite(v.y),
                   "obstacle vertices must be finite");
    }
    HIPO_REQUIRE(h.is_simple(), "obstacle polygon must be simple");
  }
  obstacle_index_ =
      spatial::SegmentIndex(region_, std::move(config.obstacles));
  has_obstacles_ = obstacle_index_.num_polygons() != 0;
  for (const auto& d : devices_) {
    HIPO_REQUIRE(d.type < device_types_.size(), "device type out of range");
    HIPO_REQUIRE(std::isfinite(d.pos.x) && std::isfinite(d.pos.y) &&
                     std::isfinite(d.orientation),
                 "device position and orientation must be finite");
    HIPO_REQUIRE(std::isfinite(d.p_th) && d.p_th > 0.0,
                 "device P_th must be positive and finite");
    HIPO_REQUIRE(std::isfinite(d.weight) && d.weight > 0.0,
                 "device weight must be positive and finite");
    HIPO_REQUIRE(region_.contains(d.pos, geom::kEps),
                 "device outside the region");
    // Only an obstacle whose bbox holds the device can hold it; the index
    // lists those (and a few more, within its margin).
    for (std::size_t pi : obstacle_index_.polygons_in_box({d.pos, d.pos})) {
      HIPO_REQUIRE(!obstacle_index_.polygons()[pi].contains_interior(d.pos),
                   "device placed inside an obstacle");
    }
  }

  std::vector<Vec2> points;
  points.reserve(devices_.size());
  for (const auto& d : devices_) points.push_back(d.pos);
  device_index_ = spatial::GridIndex(region_, std::move(points));

  facings_.reserve(devices_.size());
  for (const auto& d : devices_) {
    facings_.push_back(geom::facing_vector(d.orientation));
  }
  receiving_cones_.reserve(device_types_.size());
  for (const auto& dt : device_types_) {
    receiving_cones_.emplace_back(dt.angle / 2.0);
  }

  ladders_.reserve(pair_params_.size());
  for (std::size_t q = 0; q < charger_types_.size(); ++q) {
    const auto& ct = charger_types_[q];
    max_range_ = std::max(max_range_, ct.d_max);
    for (std::size_t t = 0; t < device_types_.size(); ++t) {
      const auto& pp = pair_params_[q * device_types_.size() + t];
      HIPO_REQUIRE(pp.a > 0.0 && pp.b > 0.0,
                   "pair params (a, b) must be positive");
      ladders_.emplace_back(pp.a, pp.b, ct.d_min, ct.d_max, eps1_);
    }
  }
}

Scenario::Config Scenario::to_config() const {
  Config cfg;
  cfg.charger_types = charger_types_;
  cfg.device_types = device_types_;
  cfg.pair_params = pair_params_;
  cfg.charger_counts = charger_counts_;
  cfg.devices = devices_;
  cfg.obstacles = obstacle_index_.polygons();
  cfg.region = region_;
  cfg.eps1 = eps1_;
  return cfg;
}

std::size_t Scenario::num_chargers() const {
  std::size_t total = 0;
  for (int c : charger_counts_) total += static_cast<std::size_t>(c);
  return total;
}

const PairParams& Scenario::pair_params(std::size_t q, std::size_t t) const {
  HIPO_ASSERT(q < charger_types_.size() && t < device_types_.size());
  return pair_params_[q * device_types_.size() + t];
}

int Scenario::charger_count(std::size_t q) const {
  HIPO_ASSERT(q < charger_counts_.size());
  return charger_counts_[q];
}

SectorRing Scenario::charging_area(const Strategy& s) const {
  const auto& ct = charger_type(s.type);
  return SectorRing(s.pos, s.orientation, ct.angle, ct.d_min, ct.d_max);
}

SectorRing Scenario::receiving_area(std::size_t j, std::size_t q) const {
  const auto& d = device(j);
  const auto& ct = charger_type(q);
  return SectorRing(d.pos, d.orientation, device_type(d.type).angle, ct.d_min,
                    ct.d_max);
}

bool Scenario::coverage_geometry(const Strategy& s, std::size_t j,
                                 double& distance_out) const {
  const auto& ct = charger_type(s.type);
  const auto& dev = device(j);
  const Vec2 so = dev.pos - s.pos;
  const double d = so.norm();
  distance_out = d;
  if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
    return false;
  if (d <= geom::kEps) return false;  // coincident positions: undefined angles
  const double ang_eps = geom::kCoverEps / std::max(d, 1e-12);
  // Charger's sector contains the device.
  if (ct.angle < geom::kTwoPi) {
    const double dev_angle = geom::angle_distance(so.angle(), s.orientation);
    if (dev_angle > ct.angle / 2.0 + ang_eps) return false;
  }
  // Device's receiving sector contains the charger.
  const double recv_angle = device_type(dev.type).angle;
  if (recv_angle < geom::kTwoPi) {
    const double chg_angle =
        geom::angle_distance((-so).angle(), dev.orientation);
    if (chg_angle > recv_angle / 2.0 + ang_eps) return false;
  }
  return true;
}

bool Scenario::coverage_conditions(const Strategy& s, std::size_t j,
                                   double& distance_out) const {
  return coverage_geometry(s, j, distance_out) &&
         line_of_sight(s.pos, device(j).pos);
}

bool Scenario::covers(const Strategy& s, std::size_t j) const {
  double d;
  return coverage_conditions(s, j, d);
}

double Scenario::exact_power_from_distance(std::size_t q, std::size_t j,
                                           double d) const {
  const auto& pp = pair_params(q, device(j).type);
  return pp.a / ((d + pp.b) * (d + pp.b));
}

double Scenario::approx_power_from_distance(std::size_t q, std::size_t j,
                                            double d) const {
  const auto& lad = ladder_for_device(q, j);
  // Gating passed with tolerance but d may sit a hair outside the ladder
  // domain; clamp into it so covered devices always get the ring power.
  const double dc = std::clamp(d, lad.d_min(), lad.d_max());
  return lad.approx_power(dc);
}

double Scenario::exact_power(const Strategy& s, std::size_t j) const {
  double d;
  if (!coverage_conditions(s, j, d)) return 0.0;
  return exact_power_from_distance(s.type, j, d);
}

double Scenario::approx_power(const Strategy& s, std::size_t j) const {
  double d;
  if (!coverage_conditions(s, j, d)) return 0.0;
  return approx_power_from_distance(s.type, j, d);
}

double Scenario::total_exact_power(std::span<const Strategy> placement,
                                   std::size_t j) const {
  double total = 0.0;
  for (const auto& s : placement) total += exact_power(s, j);
  return total;
}

double Scenario::utility(std::size_t j, double x) const {
  const double pth = device(j).p_th;
  return x >= pth ? 1.0 : x / pth;
}

double Scenario::total_weight() const {
  double total = 0.0;
  for (const auto& d : devices_) total += d.weight;
  return total;
}

std::vector<double> Scenario::exact_powers(
    std::span<const Strategy> placement) const {
  std::vector<double> out(devices_.size(), 0.0);
  if (devices_.empty()) return out;
  std::vector<std::size_t> near;
  std::size_t tested = 0;
  std::size_t covered = 0;
  for (const auto& s : placement) {
    const auto& ct = charger_type(s.type);
    if (std::isnan(s.pos.x) || std::isnan(s.pos.y)) {
      // No distance bound holds for a NaN position: gate every device,
      // exactly as the per-device loop does.
      near.resize(devices_.size());
      std::iota(near.begin(), near.end(), std::size_t{0});
    } else {
      // The relative slack keeps the squared-distance query a superset of
      // the gate's hypot(...) <= d_max + kCoverEps test.
      device_index_.query_radius(
          s.pos, (ct.d_max + geom::kCoverEps) * (1.0 + 1e-9), near);
    }
    tested += near.size();
    for (const std::size_t j : near) {
      double d;
      if (!coverage_conditions(s, j, d)) continue;
      out[j] += exact_power_from_distance(s.type, j, d);
      ++covered;
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& pairs_tested =
        obs::counter("exact_eval.pairs_tested");
    static obs::Counter& pairs_covered =
        obs::counter("exact_eval.pairs_covered");
    pairs_tested.bump(tested);
    pairs_covered.bump(covered);
  }
  return out;
}

double Scenario::placement_utility(std::span<const Strategy> placement) const {
  return placement_utility_from(exact_powers(placement));
}

double Scenario::placement_utility_from(std::span<const double> powers) const {
  HIPO_ASSERT(powers.size() == devices_.size());
  if (devices_.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < devices_.size(); ++j) {
    total += devices_[j].weight * utility(j, powers[j]);
  }
  return total / total_weight();
}

std::vector<double> Scenario::per_device_power(
    std::span<const Strategy> placement) const {
  return exact_powers(placement);
}

std::vector<double> Scenario::per_device_utility(
    std::span<const Strategy> placement) const {
  return per_device_utility_from(exact_powers(placement));
}

std::vector<double> Scenario::per_device_utility_from(
    std::span<const double> powers) const {
  HIPO_ASSERT(powers.size() == devices_.size());
  std::vector<double> out(devices_.size());
  for (std::size_t j = 0; j < devices_.size(); ++j) {
    out[j] = utility(j, powers[j]);
  }
  return out;
}

void Scenario::validate_placement(std::span<const Strategy> placement) const {
  std::vector<int> used(charger_types_.size(), 0);
  for (const auto& s : placement) {
    HIPO_REQUIRE(s.type < charger_types_.size(),
                 "strategy charger type out of range");
    HIPO_REQUIRE(position_feasible(s.pos),
                 "strategy position infeasible (outside region or inside "
                 "an obstacle)");
    ++used[s.type];
  }
  for (std::size_t q = 0; q < used.size(); ++q) {
    HIPO_REQUIRE(used[q] <= charger_counts_[q],
                 "placement exceeds the charger budget of type " +
                     std::to_string(q));
  }
}

}  // namespace hipo::model
