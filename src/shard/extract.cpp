#include "src/shard/extract.hpp"

#include <string>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/util/error.hpp"

namespace hipo::shard {

SubScenario build_sub_scenario(const model::Scenario& full,
                               const ShardManifest& manifest) {
  model::Scenario::Config cfg;
  for (std::size_t q = 0; q < full.num_charger_types(); ++q) {
    cfg.charger_types.push_back(full.charger_type(q));
  }
  for (std::size_t t = 0; t < full.num_device_types(); ++t) {
    cfg.device_types.push_back(full.device_type(t));
  }
  for (std::size_t q = 0; q < full.num_charger_types(); ++q) {
    for (std::size_t t = 0; t < full.num_device_types(); ++t) {
      cfg.pair_params.push_back(full.pair_params(q, t));
    }
  }
  cfg.charger_counts = full.charger_counts();
  cfg.region = full.region();
  cfg.eps1 = full.eps1();
  cfg.devices.reserve(manifest.visible.size());
  for (std::size_t j : manifest.visible) {
    cfg.devices.push_back(full.device(j));
  }
  const auto& obstacles = full.obstacles();
  cfg.obstacles.reserve(manifest.obstacles.size());
  for (std::size_t pi : manifest.obstacles) {
    cfg.obstacles.push_back(obstacles[pi]);
  }

  SubScenario sub{model::Scenario(std::move(cfg)), manifest.visible, {}};

  // Owned ⊆ visible, both ascending: a single two-pointer sweep maps each
  // owned global id to its local position.
  sub.owned_local.reserve(manifest.owned.size());
  std::size_t v = 0;
  for (std::size_t j : manifest.owned) {
    while (v < manifest.visible.size() && manifest.visible[v] < j) ++v;
    HIPO_ASSERT(v < manifest.visible.size() && manifest.visible[v] == j);
    sub.owned_local.push_back(v);
  }
  return sub;
}

std::size_t retained_bytes(const std::vector<pdcs::Candidate>& cands) {
  std::size_t b = cands.size() * sizeof(pdcs::Candidate);
  for (const auto& c : cands) {
    b += c.covered.size() * (sizeof(std::size_t) + sizeof(double));
  }
  return b;
}

ShardStats extract_shard(const model::Scenario& full, const ShardPlan& plan,
                         std::size_t shard_id,
                         const pdcs::ExtractOptions& opt,
                         std::size_t mem_ceiling_bytes,
                         std::vector<std::vector<pdcs::Candidate>>& per_task,
                         parallel::ThreadPool* pool) {
  HIPO_REQUIRE(per_task.size() == full.num_devices(),
               "shard extraction needs one task slot per device");
  const ShardManifest& manifest = plan.shard(shard_id);
  obs::Span span("shard.extract", static_cast<std::uint64_t>(shard_id));
  obs::Stopwatch shard_watch;

  ShardStats stats;
  stats.tasks = manifest.owned.size();
  stats.task_seconds.assign(manifest.owned.size(), 0.0);
  if (manifest.owned.empty()) {
    stats.seconds = shard_watch.seconds();
    return stats;
  }

  const SubScenario sub = build_sub_scenario(full, manifest);
  const spatial::GridIndex& index = sub.scenario.device_index();

  // extract_all's task loop would write local slots; this body remaps each
  // task's rows to global ids before storing them.
  parallel::chunked_for(pool, sub.owned_local.size(), [&](std::size_t k) {
    obs::Stopwatch watch;
    auto cands = pdcs::extract_device_task(sub.scenario, index,
                                           sub.owned_local[k], opt);
    // Remap covered sets to global ids in place; the map is monotone, so
    // ascending order is preserved.
    for (auto& c : cands) {
      for (auto& j : c.covered) j = sub.device_map[j];
    }
    per_task[manifest.owned[k]] = std::move(cands);
    stats.task_seconds[k] = watch.seconds();
  });

  for (std::size_t i : manifest.owned) {
    stats.rows += per_task[i].size();
    stats.peak_bytes += retained_bytes(per_task[i]);
  }
  HIPO_REQUIRE(mem_ceiling_bytes == 0 || stats.peak_bytes <= mem_ceiling_bytes,
               "shard " + std::to_string(shard_id) + ": retained rows (" +
                   std::to_string(stats.peak_bytes) +
                   " bytes) exceed --mem-ceiling-mb");
  stats.seconds = shard_watch.seconds();
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("shard.tasks").bump(stats.tasks);
    obs::counter("shard.rows").bump(stats.rows);
  }
  return stats;
}

}  // namespace hipo::shard
