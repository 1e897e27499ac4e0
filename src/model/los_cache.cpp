#include "src/model/los_cache.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

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

double LosCache::total_exact_power(std::span<const Strategy> placement,
                                   std::size_t j) {
  double total = 0.0;
  for (const auto& s : placement) total += exact_power(s, j);
  return total;
}

double LosCache::placement_utility(std::span<const Strategy> placement) {
  const std::size_t n = scenario_->num_devices();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    total += scenario_->device(j).weight *
             scenario_->utility(j, total_exact_power(placement, j));
  }
  return total / scenario_->total_weight();
}

double LosCache::placement_utility(std::span<const Strategy> placement,
                                   parallel::ThreadPool* workers) {
  const std::size_t n = scenario_->num_devices();
  // Fixed chunking (independent of the worker count) keeps the device →
  // chunk assignment deterministic; determinism of the value itself only
  // needs the fixed-order sum below, since each device's contribution is
  // computed independently.
  constexpr std::size_t kGrain = 16;
  if (workers == nullptr || workers->num_workers() <= 1 || n <= kGrain) {
    return placement_utility(placement);
  }
  std::vector<double> contribution(n);
  const std::size_t chunks = (n + kGrain - 1) / kGrain;
  workers->parallel_for(chunks, [&](std::size_t c) {
    // Chunk-local memoization: LosCache is not thread-safe, and sharing
    // would not change results (only hit rates).
    LosCache local(*scenario_);
    const std::size_t end = std::min(n, (c + 1) * kGrain);
    for (std::size_t j = c * kGrain; j < end; ++j) {
      contribution[j] =
          scenario_->device(j).weight *
          scenario_->utility(j, local.total_exact_power(placement, j));
    }
  });
  // Same summation order as the sequential path → bit-identical result.
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) total += contribution[j];
  return total / scenario_->total_weight();
}

}  // namespace hipo::model
