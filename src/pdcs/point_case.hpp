// PDCS extraction for the point case (Algorithm 1).
//
// With the charger's position fixed, rotate it through 360°: the devices a
// type-q charger at p can possibly cover contribute orientation intervals
// [θ_j − α_q/2, θ_j + α_q/2] (SectorRing::covering_orientations). Every
// maximal covered set is attained at an orientation where some device is
// about to fall out of the clockwise boundary — i.e. at an interval end —
// so sweeping interval ends extracts all PDCSs at p.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/geometry/vec2.hpp"
#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::model {
class LosCache;
}

namespace hipo::pdcs {

/// Algorithm 1 with its working buffers kept between positions. gather()
/// finds the devices a charger at one position could cover under some
/// orientation and computes everything about them that does not depend on
/// the orientation (distance, bearing, ring power) once; sweep() then turns
/// the charger through the candidate orientations with angle tests only,
/// and appends every orientation's covered set. It does not filter them:
/// the caller's DominanceFilter over the arena removes the sets that are
/// not maximal at their position (ALGORITHMS.md, Task pass), and the arena
/// itself drops repeats. Once the buffers have grown, neither call
/// allocates. Not thread-safe; keep one per thread.
class PointSweep {
 public:
  /// The devices of `pool` a type-q charger at `pos` could cover under SOME
  /// orientation: all Eq. (1) conditions except the charger's own
  /// sector-angle condition. Returns how many; device(k) lists them in pool
  /// order. The range and receiving-sector conditions are decided by
  /// squared distance and by a dot product against the Scenario's facing
  /// data (geom::range_gate, Scenario::receiving_cone); a device inside a
  /// gate's band takes the exact hypot/atan2 test, so every decision is
  /// the exact one.
  std::size_t gather(const model::Scenario& scenario, std::size_t q,
                     geom::Vec2 pos, std::span<const std::size_t> pool);
  std::size_t device(std::size_t k) const { return coverable_[k].device; }
  /// Devices gather() has sent to the exact test since construction.
  std::size_t exact_band() const { return exact_band_; }

  /// The last gather's covered sets, one per candidate orientation with a
  /// nonempty set, appended to `out` in ascending orientation order with
  /// their approximated powers (the arena keeps only the first of equal
  /// rows). Returns the number of sets emitted, repeats included.
  std::size_t sweep(RowArena& out);

 private:
  /// Orientation-independent facts about one coverable device.
  struct Coverable {
    std::size_t device;
    double bearing;  // atan2 of o_j − pos: the charger-sector test's input
    double theta;    // bearing normalized to [0, 2π): the sweep's angle
    double ang_eps;  // kCoverEps / d: the sector test's distance slack
    double power;    // ring power at d
  };

  std::size_t q_ = 0;
  double alpha_ = 0.0;
  std::size_t exact_band_ = 0;
  geom::Vec2 pos_;
  std::vector<Coverable> coverable_;
  std::vector<double> orientations_;
};

/// Devices a type-q charger at `pos` could cover under SOME orientation
/// (PointSweep::gather), in pool order.
std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           geom::Vec2 pos,
                                           std::span<const std::size_t> pool);

/// Algorithm 1 at position `pos`: one candidate per maximal covered set,
/// restricted to the device pool (ascending device indices; pass all of
/// them for the exact algorithm, Algorithm 4 passes a neighbor set).
/// Candidates carry the approximated (ring) powers. Unlike
/// PointSweep::sweep, the result is filtered: a DominanceFilter over the
/// position's rows keeps each maximal set once, in its admission order
/// (more devices first, then more total power, then lower orientation).
/// Its sweep, arena and filter buffers are kept per thread between calls.
/// Returns an empty vector if nothing is coverable or `pos` is not a
/// feasible charger position. The trailing LosCache* is ignored; it stays
/// only so the frozen end-to-end benchmark (perfbench/) still compiles, and
/// goes in the next benchmark change.
std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type,
                                          geom::Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* = nullptr);

}  // namespace hipo::pdcs
