// PDCS extraction for the point case (Algorithm 1).
//
// With the charger's position fixed, rotate it through 360°: the devices a
// type-q charger at p can possibly cover contribute orientation intervals
// [θ_j − α_q/2, θ_j + α_q/2] (SectorRing::covering_orientations). Every
// maximal covered set is attained at an orientation where some device is
// about to fall out of the clockwise boundary — i.e. at an interval end —
// so sweeping interval ends extracts all PDCSs at p.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/vec2.hpp"
#include "src/model/los_cache.hpp"
#include "src/model/scenario.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::pdcs {

/// Algorithm 1 with its working buffers kept between positions. gather()
/// finds the devices a charger at one position could cover under some
/// orientation and computes everything about them that does not depend on
/// the orientation (distance, bearing, ring power) once; sweep() then turns
/// the charger through the candidate orientations with angle tests only,
/// and keeps the position's maximal covered sets. Once the buffers have
/// grown, neither call allocates. Not thread-safe; keep one per thread.
class PointSweep {
 public:
  /// The devices of `pool` a type-q charger at `pos` could cover under SOME
  /// orientation: all Eq. (1) conditions except the charger's own
  /// sector-angle condition, with line of sight through `cache` when given
  /// (results identical). Returns how many; device(k) lists them in pool
  /// order.
  std::size_t gather(const model::Scenario& scenario, std::size_t q,
                     geom::Vec2 pos, std::span<const std::size_t> pool,
                     model::LosCache* cache);
  std::size_t device(std::size_t k) const { return coverable_[k].device; }

  /// The last gather's maximal covered sets, appended to `out` as one row
  /// each in filter_dominated's survivor order, with their approximated
  /// powers. Returns the number of rows appended.
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
  /// One orientation's covered set, as a bitmask over coverable_.
  struct Row {
    double orientation;
    double total_power;
    std::uint32_t size;
    std::uint32_t mask;  // offset into masks_
  };

  std::size_t q_ = 0;
  double alpha_ = 0.0;
  geom::Vec2 pos_;
  std::vector<Coverable> coverable_;
  std::vector<double> orientations_;
  std::vector<std::uint64_t> masks_;
  std::vector<Row> rows_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> kept_;
};

/// Devices a type-q charger at `pos` could cover under SOME orientation
/// (PointSweep::gather), in pool order.
std::vector<std::size_t> orientable_covers(const model::Scenario& scenario,
                                           std::size_t charger_type,
                                           geom::Vec2 pos,
                                           std::span<const std::size_t> pool,
                                           model::LosCache* cache = nullptr);

/// Algorithm 1 at position `pos`: one candidate per maximal covered set,
/// restricted to the device pool (pass all device indices for the exact
/// algorithm; Algorithm 4 passes a neighbor set). Candidates carry the
/// approximated (ring) powers. Dominated candidates at this point are
/// already filtered. Returns an empty vector if nothing is coverable or
/// `pos` is not a feasible charger position. With `cache`, line-of-sight
/// verdicts are memoized (results identical).
std::vector<Candidate> extract_point_case(const model::Scenario& scenario,
                                          std::size_t charger_type,
                                          geom::Vec2 pos,
                                          std::span<const std::size_t> pool,
                                          model::LosCache* cache = nullptr);

}  // namespace hipo::pdcs
