#include "src/shard/extract.hpp"

#include <algorithm>
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

namespace {

/// Accounting bytes of a tile's transient per-task vectors: what the heap
/// holds between task completion and the arena spill. Size-based (not
/// capacity), so the figure is deterministic across allocators.
std::size_t transient_bytes(const std::vector<pdcs::Candidate>& cands) {
  std::size_t b = cands.size() * sizeof(pdcs::Candidate);
  for (const auto& c : cands) {
    b += c.covered.size() * (sizeof(std::size_t) + sizeof(double));
  }
  return b;
}

}  // namespace

ShardStats extract_shard(const model::Scenario& full, const ShardPlan& plan,
                         std::size_t shard_id,
                         const pdcs::ExtractOptions& opt,
                         const TileOptions& tile, CandidatePool& out,
                         parallel::ThreadPool* pool) {
  HIPO_REQUIRE(tile.tile_tasks >= 1, "tile size must be positive");
  const ShardManifest& manifest = plan.shard(shard_id);
  obs::Span span("shard.extract", static_cast<std::uint64_t>(shard_id));
  obs::Stopwatch shard_watch;

  ShardStats stats;
  stats.tasks = manifest.owned.size();
  stats.task_seconds.assign(manifest.owned.size(), 0.0);
  stats.final_tile_tasks = tile.tile_tasks;
  if (manifest.owned.empty()) {
    stats.seconds = shard_watch.seconds();
    return stats;
  }

  const SubScenario sub = build_sub_scenario(full, manifest);
  const spatial::GridIndex& index = sub.scenario.device_index();

  const std::size_t ceiling_bytes = tile.mem_ceiling_bytes;
  std::size_t tile_tasks = tile.tile_tasks;
  std::vector<std::vector<pdcs::Candidate>> tile_out;

  for (std::size_t base = 0; base < sub.owned_local.size();) {
    const std::size_t count =
        std::min(tile_tasks, sub.owned_local.size() - base);
    tile_out.assign(count, {});
    auto run_task = [&](std::size_t k) {
      obs::Stopwatch watch;
      auto cands = pdcs::extract_device_task(sub.scenario, index,
                                             sub.owned_local[base + k], opt);
      // Remap covered sets to global ids in place; the map is monotone, so
      // ascending order is preserved.
      for (auto& c : cands) {
        for (auto& j : c.covered) j = sub.device_map[j];
      }
      tile_out[k] = std::move(cands);
      stats.task_seconds[base + k] = watch.seconds();
    };
    if (pool != nullptr && pool->num_workers() > 1) {
      pool->parallel_for(count, run_task);
    } else {
      for (std::size_t k = 0; k < count; ++k) run_task(k);
    }

    std::size_t transient = 0;
    for (const auto& cands : tile_out) transient += transient_bytes(cands);
    // Spill in task order (determinism does not depend on pool scheduling).
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t global_task = manifest.owned[base + k];
      for (const auto& c : tile_out[k]) {
        out.append(static_cast<std::uint32_t>(global_task), c);
        ++stats.rows;
      }
      tile_out[k] = {};
    }
    stats.peak_bytes = std::max(stats.peak_bytes, out.bytes() + transient);
    base += count;

    if (ceiling_bytes != 0) {
      HIPO_REQUIRE(out.bytes() <= ceiling_bytes,
                   "shard " + std::to_string(shard_id) +
                       ": candidate arena (" + std::to_string(out.bytes()) +
                       " bytes) exceeds --mem-ceiling-mb; retained rows "
                       "cannot be shrunk by tile backoff");
      if (out.bytes() + transient > ceiling_bytes && tile_tasks > 1) {
        tile_tasks = std::max<std::size_t>(1, tile_tasks / 2);
        ++stats.tile_backoffs;
      }
    }
  }
  stats.final_tile_tasks = tile_tasks;
  stats.seconds = shard_watch.seconds();
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("shard.tasks").bump(stats.tasks);
    obs::counter("shard.rows").bump(stats.rows);
    obs::counter("shard.tile_backoffs").bump(stats.tile_backoffs);
    obs::gauge("shard.peak_arena_bytes").set(static_cast<double>(out.bytes()));
  }
  return stats;
}

}  // namespace hipo::shard
