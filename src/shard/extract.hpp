// Per-shard PDCS extraction: the shard's owned tasks through extract_all's
// own task loop (pdcs::run_tasks) on the full scenario, metered against a
// memory ceiling. Each owned task's rows are exactly extract_all's rows for
// that task, because it is the same call on the same scenario.
//
// Memory ceiling. A shard's retained rows are metered with the size-based
// Candidate formula (retained_bytes); over the ceiling the shard fails with
// ConfigError rather than growing without bound.
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/shard/plan.hpp"

namespace hipo::shard {

struct ShardStats {
  std::size_t tasks = 0;
  std::size_t rows = 0;
  /// Size-based bytes of the shard's retained rows (retained_bytes).
  std::size_t peak_bytes = 0;
  /// Wall-clock seconds of this shard's extraction.
  double seconds = 0.0;
  /// Per-owned-task seconds, parallel to the manifest's `owned`.
  std::vector<double> task_seconds;
};

/// Accounting bytes of one task's rows: what the heap holds for them.
/// Size-based (not capacity), so the figure is deterministic across
/// allocators and process modes.
std::size_t retained_bytes(const std::vector<pdcs::Candidate>& cands);

/// Extract every owned task of `plan.shard(shard_id)` with pdcs::run_tasks,
/// writing task i's rows into `per_task[i]`; `per_task` has one slot per
/// device of `full`, and only owned slots are written. `pool` parallelizes
/// the tasks; each writes its own slot, so the result is identical for any
/// worker count. ConfigError when the retained rows exceed
/// `mem_ceiling_bytes` (0 disables the check).
ShardStats extract_shard(const model::Scenario& full, const ShardPlan& plan,
                         std::size_t shard_id,
                         const pdcs::ExtractOptions& opt,
                         std::size_t mem_ceiling_bytes,
                         std::vector<std::vector<pdcs::Candidate>>& per_task,
                         parallel::ThreadPool* pool = nullptr);

}  // namespace hipo::shard
