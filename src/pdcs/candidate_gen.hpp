// Area-case PDCS candidate generation (Algorithm 2) organized as per-device
// tasks over neighbor sets (Algorithm 4), which is the implementable form
// the paper itself uses ("for programming, it is hard to obtain the feasible
// geometric areas", Section 5).
//
// For a charger type q and a device pair (o_i, o_j), candidate charger
// positions are generated at the critical conditions of Theorem 4.1. The
// families, each with its ExtractOptions switch:
//   * pair line (use_pair_line): the straight line through the pair (the
//     charger's clockwise sector boundary passes through both) intersected
//     with feasible-geometric-area boundaries — ring circles of both devices
//     and obstacle edges;
//   * inscribed-angle arcs (use_pair_arcs): circles through the pair with
//     circumferential angle α_q (both line boundaries of the sector touch
//     the two devices) intersected with the same boundaries, plus interior
//     arc samples;
//   * ring × ring (use_ring_ring): intersections of the two devices'
//     approximated power receiving areas (Algorithm 4 step 9);
//   * obstacle/hole (use_obstacle_ring): ring × obstacle-edge intersections
//     and hole-boundary rays (obstacle vertex directions) at ring radii
//     (Algorithm 4 step 10);
//   * receiving-sector sides (use_sector_rays): each anchor's two sector
//     sides φ_o ± α_o/2 (Section 4.1.2's straight area boundaries), as
//     segments of length d_max, intersected with the other anchor's ring
//     circles, the pair's inscribed-angle circles and obstacle edges.
// A pair position is kept only when it lies within d_max + kCoverEps of
// *both* anchors: anywhere else the charger cannot reach both devices of
// the pair, and what it can reach another pair or the singleton covers.
// The constructions only intersect inside that two-disk lens.
// Singleton constructions (use_singleton: receiving-sector boundary
// directions at ring radii) cover isolated devices, replacing Algorithm 2
// step 8's random boundary point with deterministic samples.
//
// At every generated position the point-case sweep (Algorithm 1) produces
// candidates, which are dominance-filtered per task and again globally.
//
// Locality: every position of task i lies within d_max of o_i, and its
// coverage pool and line-of-sight segments reach another d_max, so a task's
// output depends only on geometry within task_reach() of its device.
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
  bool use_sector_rays = true;
  /// Skip the final global dominance filter (per-task filters still run).
  bool global_filter = true;
};

/// Radius around device i beyond which no geometry — device, orientation or
/// obstacle — can change extract_device_task(i)'s output: 2·d_max (positions
/// within d_max of o_i, their pools and LOS segments another d_max) plus a
/// slack that absorbs the kCoverEps tolerances. The delta layer's
/// invalidation radius.
double task_reach(const model::Scenario& scenario);

/// Ring boundary radii of device j w.r.t. charger type q: the ladder's
/// d_min plus all outer rung radii (ascending). Computed once per ladder,
/// i.e. per (charger type, device type).
const std::vector<double>& ring_radii(const model::Scenario& scenario,
                                      std::size_t q, std::size_t j);

/// Candidate charger positions for the pair (i, j) under charger type q.
/// Positions are deduplicated and filtered to feasible placements within
/// charging range (d_max + kCoverEps) of both devices.
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
