// Spatial shard plan for distributed PDCS extraction.
//
// The deployment region is cut into a uniform gx × gy grid of shards. Each
// shard *owns* the device tasks whose device falls inside its cell and gets
// a *visibility halo* wide enough that running those tasks against only the
// halo's geometry is byte-identical to running them against the full
// scenario (docs/ALGORITHMS.md, "Sharded extraction & halo correctness").
//
// Halo radius. A task for device o_i reads geometry at up to
//
//   * 2·d_max   — the Algorithm 4 neighbor set (pair partner o_j),
//   * 3·d_max   — candidate positions (within d_max + ε of o_i or o_j),
//   * 4·d_max   — coverage pools (within d_max + ε of a position) and the
//                 line-of-sight segments / feasibility probes those imply,
//
// so the visibility halo is 2·(2·d_max) + ε around the owned cell — twice
// the paper's 2·d_max neighbor radius, for the same reason the delta
// layer's invalidation radius is 4·max_charge_range() + 1e-3. Obstacles
// enter every query through an exact bbox gate (SegmentIndex), so the same
// radius bounds the obstacle subset.
//
// Ownership is deterministic: a device exactly on an interior cell border
// belongs to the higher-index cell (floor semantics); the region's high
// edges fold into the last row/column. Pairs (i, j) are generated once
// globally in the task of the lower-index device, so each pair belongs to
// exactly one shard.
#pragma once

#include <cstddef>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/model/scenario.hpp"

namespace hipo::shard {

struct PlanOptions {
  /// Requested shard count; the grid is gx × gy with gx·gy == shards.
  std::size_t shards = 1;
};

/// Everything one worker needs to extract a shard: which device tasks it
/// runs and which subset of the scenario those tasks may read.
struct ShardManifest {
  std::size_t shard_id = 0;
  /// The owned cell (cells partition the region; see ownership rule above).
  geom::BBox owned_box;
  /// Global indices of owned device tasks, ascending.
  std::vector<std::size_t> owned;
  /// Global indices of visible devices (within the halo of owned_box),
  /// ascending; a superset of `owned`.
  std::vector<std::size_t> visible;
  /// Global indices of visible obstacles (bbox intersects the halo-inflated
  /// owned_box), ascending.
  std::vector<std::size_t> obstacles;
};

class ShardPlan {
 public:
  /// Plans `opt.shards` shards over `scenario`. Every device is owned by
  /// exactly one shard; shards may be empty.
  ShardPlan(const model::Scenario& scenario, const PlanOptions& opt = {});

  std::size_t num_shards() const { return manifests_.size(); }
  std::size_t grid_x() const { return gx_; }
  std::size_t grid_y() const { return gy_; }
  /// The visibility radius around each owned cell: 4·max_charge_range + ε.
  double halo_radius() const { return halo_; }

  const ShardManifest& shard(std::size_t k) const { return manifests_[k]; }
  const std::vector<ShardManifest>& manifests() const { return manifests_; }

  /// The shard owning position `p` (the deterministic ownership rule).
  std::size_t owner_of(geom::Vec2 p) const;

 private:
  geom::BBox region_;
  std::size_t gx_ = 1;
  std::size_t gy_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  double halo_ = 0.0;
  std::vector<ShardManifest> manifests_;
};

}  // namespace hipo::shard
