#include "src/shard/plan.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace hipo::shard {

ShardPlan::ShardPlan(const model::Scenario& scenario, const PlanOptions& opt) {
  HIPO_REQUIRE(opt.shards >= 1, "shard plan needs at least one shard");
  region_ = scenario.region();

  // Factor S into gx · gy == S with the factors as square as possible, the
  // larger factor along the longer region extent. Prime S degenerates to a
  // 1 × S strip — still a valid partition. `f <= s / f` cannot overflow.
  const std::size_t s = opt.shards;
  std::size_t small = 1;
  for (std::size_t f = 1; f <= s / f; ++f) {
    if (s % f == 0) small = f;
  }
  const std::size_t large = s / small;
  const geom::Vec2 ext = region_.extent();
  gx_ = ext.x >= ext.y ? large : small;
  gy_ = s / gx_;
  cell_w_ = ext.x / static_cast<double>(gx_);
  cell_h_ = ext.y / static_cast<double>(gy_);

  manifests_.resize(s);
  for (std::size_t k = 0; k < s; ++k) manifests_[k].shard_id = k;
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    manifests_[owner_of(scenario.device(j).pos)].owned.push_back(j);
  }
}

std::size_t ShardPlan::owner_of(geom::Vec2 p) const {
  const std::size_t cx = spatial::clamp_idx((p.x - region_.lo.x) / cell_w_, gx_);
  const std::size_t cy = spatial::clamp_idx((p.y - region_.lo.y) / cell_h_, gy_);
  return cy * gx_ + cx;
}

}  // namespace hipo::shard
