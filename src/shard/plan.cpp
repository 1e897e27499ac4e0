#include "src/shard/plan.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace hipo::shard {

namespace {

/// Slack added to the halo radius: absorbs the kCoverEps / kMargin
/// tolerances of the underlying queries (the same slack as
/// opt::DeltaSolver's invalidation radius).
constexpr double kHaloSlack = 1e-3;

/// Euclidean distance from a point to an axis-aligned box (0 inside).
double point_box_distance(geom::Vec2 p, const geom::BBox& b) {
  const double dx = std::max({b.lo.x - p.x, 0.0, p.x - b.hi.x});
  const double dy = std::max({b.lo.y - p.y, 0.0, p.y - b.hi.y});
  return std::hypot(dx, dy);
}

}  // namespace

ShardPlan::ShardPlan(const model::Scenario& scenario, const PlanOptions& opt) {
  HIPO_REQUIRE(opt.shards >= 1, "shard plan needs at least one shard");
  region_ = scenario.region();
  halo_ = 4.0 * scenario.max_charge_range() + kHaloSlack;

  // Factor S into gx · gy == S with the factors as square as possible, the
  // larger factor along the longer region extent. Prime S degenerates to a
  // 1 × S strip — still a valid partition, just with more halo overlap.
  const std::size_t s = opt.shards;
  std::size_t small = 1;
  for (std::size_t f = 1; f * f <= s; ++f) {
    if (s % f == 0) small = f;
  }
  const std::size_t large = s / small;
  const geom::Vec2 ext = region_.extent();
  gx_ = ext.x >= ext.y ? large : small;
  gy_ = s / gx_;
  cell_w_ = ext.x / static_cast<double>(gx_);
  cell_h_ = ext.y / static_cast<double>(gy_);

  manifests_.resize(s);
  for (std::size_t cy = 0; cy < gy_; ++cy) {
    for (std::size_t cx = 0; cx < gx_; ++cx) {
      ShardManifest& m = manifests_[cy * gx_ + cx];
      m.shard_id = cy * gx_ + cx;
      m.owned_box.lo = {region_.lo.x + static_cast<double>(cx) * cell_w_,
                        region_.lo.y + static_cast<double>(cy) * cell_h_};
      m.owned_box.hi = {m.owned_box.lo.x + cell_w_,
                        m.owned_box.lo.y + cell_h_};
    }
  }

  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    const geom::Vec2 p = scenario.device(j).pos;
    manifests_[owner_of(p)].owned.push_back(j);
    for (ShardManifest& m : manifests_) {
      if (point_box_distance(p, m.owned_box) <= halo_) {
        m.visible.push_back(j);
      }
    }
  }

  // Obstacle visibility by bbox against the halo-inflated cell. This is a
  // Chebyshev (per-axis) inflation — a superset of the Euclidean halo —
  // which only ever widens visibility; every obstacle query in candidate
  // generation applies its own exact bbox gate, so supersets are free.
  const auto& obstacles = scenario.obstacles();
  for (ShardManifest& m : manifests_) {
    for (std::size_t pi = 0; pi < obstacles.size(); ++pi) {
      if (obstacles[pi].bbox().intersects(m.owned_box, halo_)) {
        m.obstacles.push_back(pi);
      }
    }
  }
}

std::size_t ShardPlan::owner_of(geom::Vec2 p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t cx = clamp_idx((p.x - region_.lo.x) / cell_w_, gx_);
  const std::size_t cy = clamp_idx((p.y - region_.lo.y) / cell_h_, gy_);
  return cy * gx_ + cx;
}

}  // namespace hipo::shard
