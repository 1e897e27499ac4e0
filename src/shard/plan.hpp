// Spatial shard plan for distributed PDCS extraction.
//
// The deployment region is cut into a uniform gx × gy grid of shards. Each
// shard *owns* the device tasks whose device falls inside its cell; a
// worker runs exactly those tasks against the full scenario it already
// holds (in-process, or copy-on-write after fork), so the plan is only an
// ownership partition (docs/ALGORITHMS.md, "Sharded extraction").
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

/// The device tasks one worker runs for a shard.
struct ShardManifest {
  std::size_t shard_id = 0;
  /// Global indices of owned device tasks, ascending.
  std::vector<std::size_t> owned;
};

class ShardPlan {
 public:
  /// Plans `opt.shards` shards over `scenario`. Every device is owned by
  /// exactly one shard; shards may be empty.
  ShardPlan(const model::Scenario& scenario, const PlanOptions& opt = {});

  std::size_t num_shards() const { return manifests_.size(); }
  std::size_t grid_x() const { return gx_; }
  std::size_t grid_y() const { return gy_; }

  const ShardManifest& shard(std::size_t k) const { return manifests_[k]; }

  /// The shard owning position `p` (the deterministic ownership rule).
  std::size_t owner_of(geom::Vec2 p) const;

 private:
  geom::BBox region_;
  std::size_t gx_ = 1;
  std::size_t gy_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<ShardManifest> manifests_;
};

}  // namespace hipo::shard
