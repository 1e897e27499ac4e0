// Per-shard PDCS extraction: halo sub-scenario construction plus the
// owned-task loop, metered against a memory ceiling.
//
// Bit-identity contract. For every owned task, running extract_device_task
// against the halo sub-scenario produces byte-identical candidates (after
// the local→global index remap) to running it against the full scenario:
//
//   * the device remap is monotone (visible ids kept ascending), so
//     GridIndex::query_radius — exact and sorted — returns the same device
//     sets in relabeled form, and `j > i` pair ownership is preserved;
//   * every obstacle query is exactly post-filtered (bbox gate in
//     polygons_in_box, exact predicates in segment_blocked/point_in_any),
//     so dropping obstacles outside the halo cannot change any result;
//   * per-task dominance filtering depends only on covered-set contents and
//     relative order, both invariant under the monotone remap.
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

/// The halo-restricted scenario one shard extracts against.
struct SubScenario {
  model::Scenario scenario;
  /// Local → global device index map (== the manifest's `visible`).
  std::vector<std::size_t> device_map;
  /// Local indices of the owned tasks, ascending.
  std::vector<std::size_t> owned_local;
};

SubScenario build_sub_scenario(const model::Scenario& full,
                               const ShardManifest& manifest);

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

/// Extract every owned task of `plan.shard(shard_id)`, writing task i's rows
/// (global device ids, task output order) into `per_task[i]`; `per_task`
/// has one slot per device of `full`, and only owned slots are written.
/// `pool` parallelizes the tasks; each writes its own slot, so the result is
/// identical for any worker count. ConfigError when the retained rows exceed
/// `mem_ceiling_bytes` (0 disables the check).
ShardStats extract_shard(const model::Scenario& full, const ShardPlan& plan,
                         std::size_t shard_id,
                         const pdcs::ExtractOptions& opt,
                         std::size_t mem_ceiling_bytes,
                         std::vector<std::vector<pdcs::Candidate>>& per_task,
                         parallel::ThreadPool* pool = nullptr);

}  // namespace hipo::shard
