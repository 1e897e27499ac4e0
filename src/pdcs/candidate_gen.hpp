// Area-case PDCS candidate generation (Algorithm 2) organized as per-device
// tasks over neighbor sets (Algorithm 4), which is the implementable form
// the paper itself uses ("for programming, it is hard to obtain the feasible
// geometric areas", Section 5).
//
// For a charger type q and a device pair (o_i, o_j), candidate charger
// positions are generated at the critical conditions of Theorem 4.1:
//   * the straight line through the pair (the charger's clockwise sector
//     boundary passes through both) intersected with feasible-geometric-area
//     boundaries — ring circles of both devices and obstacle edges;
//   * the inscribed-angle arcs through the pair with circumferential angle
//     α_q (both line boundaries of the sector touch the two devices)
//     intersected with the same boundaries, plus interior arc samples;
//   * ring×ring circle intersections of the two devices' approximated power
//     receiving areas (Algorithm 4 step 9);
//   * ring×obstacle-edge intersections and hole-boundary rays (obstacle
//     vertex directions) at ring radii (Algorithm 4 step 10).
// Singleton constructions (receiving-sector boundary directions at ring
// radii) cover isolated devices, replacing Algorithm 2 step 8's random
// boundary point with deterministic samples.
//
// At every generated position the point-case sweep (Algorithm 1) produces
// candidates, which are dominance-filtered per task and again globally.
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"
#include "src/spatial/grid_index.hpp"

namespace hipo::pdcs {

struct ExtractOptions {
  /// Interior sample points per inscribed-angle arc (Algorithm 2 draws the
  /// arcs; samples emulate their intersections with area boundaries that
  /// the closed-form constructions may miss).
  int arc_samples = 2;
  /// Azimuthal samples per ring for the singleton construction (deterministic
  /// stand-in for Algorithm 2 step 8's random boundary point).
  int singleton_azimuths = 3;
  /// Ablation switches (bench_ablation_candidates): disable families of
  /// candidate constructions.
  bool use_pair_line = true;
  bool use_pair_arcs = true;
  bool use_ring_ring = true;
  bool use_obstacle_ring = true;
  bool use_singleton = true;
  /// Skip the final global dominance filter (per-task filters still run).
  bool global_filter = true;
};

/// Ring boundary radii of device j w.r.t. charger type q: the ladder's
/// d_min plus all outer rung radii (ascending). Computed once per ladder,
/// i.e. per (charger type, device type).
const std::vector<double>& ring_radii(const model::Scenario& scenario,
                                      std::size_t q, std::size_t j);

/// Candidate charger positions for the pair (i, j) under charger type q.
/// Positions are deduplicated and filtered to feasible placements within
/// charging range of at least one of the two devices.
std::vector<geom::Vec2> pair_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    std::size_t j, const ExtractOptions& opt);

/// Candidate positions derived from device i alone: ring boundary points at
/// the receiving sector's boundary/interior azimuths and at obstacle-vertex
/// (hole boundary) directions — the deterministic version of Algorithm 2
/// step 8's per-feasible-area boundary point.
std::vector<geom::Vec2> singleton_candidate_positions(
    const model::Scenario& scenario, std::size_t q, std::size_t i,
    const ExtractOptions& opt);

/// Algorithm 4: extraction task for device i — all charger types, pairs
/// restricted to neighbors with larger index (j > i) to avoid duplicate
/// work across tasks. `devices` indexes all device positions.
std::vector<Candidate> extract_device_task(const model::Scenario& scenario,
                                           const spatial::GridIndex& devices,
                                           std::size_t i,
                                           const ExtractOptions& opt);

}  // namespace hipo::pdcs
