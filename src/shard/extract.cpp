#include "src/shard/extract.hpp"

#include <string>

#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"

namespace hipo::shard {

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
  stats.task_seconds =
      pdcs::run_tasks(full, manifest.owned, opt, pool, per_task);

  for (std::size_t i : manifest.owned) {
    stats.rows += per_task[i].size();
    stats.peak_bytes += retained_bytes(per_task[i]);
  }
  HIPO_REQUIRE(mem_ceiling_bytes == 0 || stats.peak_bytes <= mem_ceiling_bytes,
               "shard " + std::to_string(shard_id) + ": retained rows (" +
                   std::to_string(stats.peak_bytes) +
                   " bytes) exceed --mem-ceiling-mb");
  stats.seconds = shard_watch.seconds();
  return stats;
}

}  // namespace hipo::shard
