#include "src/model/los_cache.hpp"

#include "src/obs/metrics.hpp"

namespace hipo::model {

LosCache::~LosCache() {
  if (!obs::metrics_enabled()) return;
  if (hits_ + misses_ == 0) return;
  static obs::Counter& hits = obs::counter("los_cache.hits");
  static obs::Counter& misses = obs::counter("los_cache.misses");
  static obs::Counter& entries = obs::counter("los_cache.entries");
  hits.bump(hits_);
  misses.bump(misses_);
  entries.bump(cache_.size());
}

bool LosCache::line_of_sight(geom::Vec2 charger_pos, std::size_t j) {
  const Key key{std::bit_cast<std::uint64_t>(charger_pos.x),
                std::bit_cast<std::uint64_t>(charger_pos.y),
                static_cast<std::uint64_t>(j)};
  if (const bool* hit = cache_.find(key)) {
    ++hits_;
    return *hit;
  }
  ++misses_;
  const bool los =
      scenario_->line_of_sight(charger_pos, scenario_->device(j).pos);
  cache_.insert(key, los);
  return los;
}

bool LosCache::covers(const Strategy& s, std::size_t j) {
  double d;
  return scenario_->coverage_geometry(s, j, d) && line_of_sight(s.pos, j);
}

double LosCache::exact_power(const Strategy& s, std::size_t j) {
  double d;
  if (!scenario_->coverage_geometry(s, j, d)) return 0.0;
  if (!line_of_sight(s.pos, j)) return 0.0;
  return scenario_->exact_power_from_distance(s.type, j, d);
}

double LosCache::approx_power(const Strategy& s, std::size_t j) {
  double d;
  if (!scenario_->coverage_geometry(s, j, d)) return 0.0;
  if (!line_of_sight(s.pos, j)) return 0.0;
  return scenario_->approx_power_from_distance(s.type, j, d);
}

double LosCache::placement_utility(std::span<const Strategy> placement) {
  return scenario_->placement_utility(placement);
}

double LosCache::placement_utility(std::span<const Strategy> placement,
                                   parallel::ThreadPool* /*workers*/) {
  return scenario_->placement_utility(placement);
}

}  // namespace hipo::model
