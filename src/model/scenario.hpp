// Scenario: the full HIPO problem instance (Section 3) — heterogeneous
// charger/device type tables, power constants, placed devices, polygonal
// obstacles, the deployment region, and the per-type charger budget.
//
// It also owns the physics: exact charging power Eq. (1)/(2), approximated
// power via the Lemma 4.1 ring ladders, line-of-sight blockage, and the
// charging utility Eq. (3) — plus the two spatial indexes every consumer
// shares: the obstacle index and a device grid.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/geometry/gates.hpp"
#include "src/geometry/polygon.hpp"
#include "src/geometry/sector_ring.hpp"
#include "src/model/piecewise.hpp"
#include "src/model/types.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/spatial/segment_index.hpp"
#include "src/util/error.hpp"

namespace hipo::model {

class Scenario {
 public:
  struct Config {
    std::vector<ChargerType> charger_types;
    std::vector<DeviceType> device_types;
    /// Row-major [charger_type][device_type] power constants (Table 4).
    std::vector<PairParams> pair_params;
    /// Number of chargers to deploy per charger type (N^q_s).
    std::vector<int> charger_counts;
    std::vector<Device> devices;
    std::vector<geom::Polygon> obstacles;
    geom::BBox region;
    /// Piecewise-approximation error ε₁ (Lemma 4.1). The end-to-end target
    /// ratio ε of Theorem 4.2 corresponds to ε₁ = 2ε/(1−2ε).
    double eps1 = 0.3 / 0.7;
  };

  explicit Scenario(Config config);

  /// Reconstruct the Config describing this scenario — the starting point
  /// for mutation (opt::DeltaSolver). Round-trips every field.
  Config to_config() const;

  // --- structure ------------------------------------------------------
  std::size_t num_charger_types() const { return charger_types_.size(); }
  std::size_t num_device_types() const { return device_types_.size(); }
  std::size_t num_devices() const { return devices_.size(); }
  std::size_t num_obstacles() const { return obstacle_index_.num_polygons(); }
  /// Total number of chargers to deploy (N_s = Σ N^q_s).
  std::size_t num_chargers() const;

  // The type and device accessors are defined inline: extraction calls
  // them tens of millions of times.
  const ChargerType& charger_type(std::size_t q) const {
    HIPO_ASSERT(q < charger_types_.size());
    return charger_types_[q];
  }
  const DeviceType& device_type(std::size_t t) const {
    HIPO_ASSERT(t < device_types_.size());
    return device_types_[t];
  }
  const PairParams& pair_params(std::size_t q, std::size_t t) const;
  int charger_count(std::size_t q) const;
  const std::vector<int>& charger_counts() const { return charger_counts_; }
  const Device& device(std::size_t j) const {
    HIPO_ASSERT(j < devices_.size());
    return devices_[j];
  }
  const std::vector<Device>& devices() const { return devices_; }
  const std::vector<geom::Polygon>& obstacles() const {
    return obstacle_index_.polygons();
  }
  /// Grid-accelerated obstacle queries (line of sight, containment, edge
  /// proximity); shared by PDCS candidate generation and ShadowMap.
  const spatial::SegmentIndex& obstacle_index() const {
    return obstacle_index_;
  }
  /// Radius queries over the device positions (index j = device j), built
  /// once over region() with the default cell target. Shared by extraction
  /// (neighbor sets, candidate pools) and exact evaluation.
  const spatial::GridIndex& device_index() const { return device_index_; }
  const geom::BBox& region() const { return region_; }
  double eps1() const { return eps1_; }

  /// Lemma 4.1 ladder for (charger type q, device type t).
  const RingLadder& ladder(std::size_t q, std::size_t t) const {
    HIPO_ASSERT(q < charger_types_.size() && t < device_types_.size());
    return ladders_[q * device_types_.size() + t];
  }
  /// Ladder for charger type q against device j's type.
  const RingLadder& ladder_for_device(std::size_t q, std::size_t j) const {
    return ladder(q, device(j).type);
  }

  /// Device j's facing unit vector (cos φ_o, sin φ_o), computed once here
  /// for the point case's receiving-sector gate (geom::facing_vector: NaN
  /// components past geom::kFacingMaxAngle, so that device always takes the
  /// exact test).
  geom::Vec2 facing(std::size_t j) const {
    HIPO_ASSERT(j < facings_.size());
    return facings_[j];
  }
  /// Device type t's receiving-sector gate: the reject and accept cone
  /// cosines around α_o/2 (geom::ConeGate). Unused for a full-circle type,
  /// which has no sector test.
  const geom::ConeGate& receiving_cone(std::size_t t) const {
    HIPO_ASSERT(t < receiving_cones_.size());
    return receiving_cones_[t];
  }

  /// Largest d_max across charger types (neighbor-set radius bound).
  double max_charge_range() const { return max_range_; }

  // --- geometry predicates ---------------------------------------------
  // Defined inline: both sit on the Eq. (1) coverage hot path, where even
  // the extra call layer is measurable against the indexed query cost.
  /// True iff the open segment a–b is not blocked by any obstacle interior.
  /// The obstacle-free short-circuit reads a plain cached bool (not the
  /// index's vector state), so the compiler can hoist it out of the tight
  /// per-device query loops of an obstacle-free scenario entirely — the
  /// equivalent check inside segment_blocked sits behind Segment
  /// construction and a call boundary it cannot always collapse.
  bool line_of_sight(geom::Vec2 a, geom::Vec2 b) const {
    if (!has_obstacles_) return true;
    return !obstacle_index_.segment_blocked({a, b});
  }
  /// True iff a charger may be placed at p: inside the region and not
  /// inside (or on the boundary of) any obstacle.
  bool position_feasible(geom::Vec2 p) const {
    if (!region_.contains(p, geom::kEps)) return false;
    return !has_obstacles_ || !obstacle_index_.point_in_any(p);
  }

  /// Eq. (1) power at distance `d` for charger type q against device j
  /// (gating already established by the caller).
  double exact_power_from_distance(std::size_t q, std::size_t j,
                                   double d) const;
  /// Eq. (5) ring-ladder power at distance `d`, clamped into the ladder
  /// domain (gating already established by the caller).
  double approx_power_from_distance(std::size_t q, std::size_t j,
                                    double d) const;

  /// The charging sector ring of a strategy.
  geom::SectorRing charging_area(const Strategy& s) const;
  /// The receiving sector ring of device j w.r.t. charger type q
  /// (device angle, charger type's radii — Section 3.1 symmetry).
  geom::SectorRing receiving_area(std::size_t j, std::size_t q) const;

  // --- physics ----------------------------------------------------------
  /// All four Eq. (1) conditions (range, both sector angles, line of sight).
  bool covers(const Strategy& s, std::size_t j) const;
  /// Exact power Eq. (1); 0 when not covered.
  double exact_power(const Strategy& s, std::size_t j) const;
  /// Approximated power P̃ (Eq. 5) with the same gating as Eq. (1).
  double approx_power(const Strategy& s, std::size_t j) const;

  /// Additive power (Eq. 2) at every device, out[j] for device j: one
  /// charger-major pass that tests each strategy only against the devices
  /// device_index() returns within its range. Bit-identical to
  /// total_exact_power(placement, j) for every j — each device still sums
  /// the same terms in placement order; only the +0.0 terms of chargers
  /// that miss it are skipped. Every exact-power evaluation below folds
  /// this vector.
  std::vector<double> exact_powers(std::span<const Strategy> placement) const;

  /// Additive power (Eq. 2) over a placement at one device.
  double total_exact_power(std::span<const Strategy> placement,
                           std::size_t j) const;

  /// Charging utility Eq. (3) for device j given received power x.
  double utility(std::size_t j, double x) const;

  /// Sum of device weights (N_o under the paper's uniform weights).
  double total_weight() const;

  /// Normalized objective of P1: Σ_j w_j·U_j(P_w(o_j)) / Σ_j w_j — the
  /// paper's (1/N_o)·Σ_j U_j under uniform weights.
  double placement_utility(std::span<const Strategy> placement) const;
  /// The same objective from already computed exact_powers(placement).
  double placement_utility_from(std::span<const double> powers) const;

  /// Per-device utilities under a placement (exact power).
  std::vector<double> per_device_utility(
      std::span<const Strategy> placement) const;
  /// Per-device utilities from already computed exact_powers(placement).
  std::vector<double> per_device_utility_from(
      std::span<const double> powers) const;
  /// Same as exact_powers.
  std::vector<double> per_device_power(
      std::span<const Strategy> placement) const;

  /// Validates a placement against the per-type budget and position
  /// feasibility; throws ConfigError on violation.
  void validate_placement(std::span<const Strategy> placement) const;

 private:
  /// All Eq. (1) conditions *except* line of sight (range and both sector
  /// angles); writes the charger–device distance. coverage_conditions adds
  /// the line-of-sight test after it.
  bool coverage_geometry(const Strategy& s, std::size_t j,
                         double& distance_out) const;
  /// All four Eq. (1) conditions; writes the charger–device distance.
  bool coverage_conditions(const Strategy& s, std::size_t j,
                           double& distance_out) const;

  std::vector<ChargerType> charger_types_;
  std::vector<DeviceType> device_types_;
  std::vector<PairParams> pair_params_;
  std::vector<int> charger_counts_;
  std::vector<Device> devices_;
  /// Owns the obstacle polygons (obstacles() exposes its vector).
  spatial::SegmentIndex obstacle_index_;
  /// Cached obstacle_index_.num_polygons() != 0 for the hot-path guards
  /// above.
  bool has_obstacles_ = false;
  geom::BBox region_;
  /// Over devices_ in index order (see device_index()).
  spatial::GridIndex device_index_;
  double eps1_;
  std::vector<RingLadder> ladders_;  // [q * num_device_types + t]
  std::vector<geom::Vec2> facings_;  // [j], see facing()
  std::vector<geom::ConeGate> receiving_cones_;  // [t]
  double max_range_ = 0.0;
};

}  // namespace hipo::model
