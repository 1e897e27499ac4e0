// Full PDCS extraction: sequential (Algorithm 2 applied to every
// multi-feasible geometric area via the per-device task decomposition) and
// distributed (Algorithm 5: per-device tasks, LPT-assigned to machines).
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/parallel/lpt.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate_gen.hpp"

namespace hipo::pdcs {

struct ExtractionResult {
  /// All surviving candidates; each carries its charger type in
  /// strategy.type (the partition-matroid part it belongs to).
  std::vector<Candidate> candidates;
  /// Wall-clock seconds of each per-device task (Fig. 12's parallel part).
  std::vector<double> task_seconds;
  /// Candidates per charger type after global filtering.
  std::vector<std::size_t> per_type_counts;
  /// Total candidates generated before the global dominance filter.
  std::size_t raw_candidates = 0;
};

/// Run every per-device task (optionally on `pool`), then globally
/// dominance-filter per charger type. Deterministic output order regardless
/// of thread scheduling.
ExtractionResult extract_all(const model::Scenario& scenario,
                             const ExtractOptions& opt = {},
                             parallel::ThreadPool* pool = nullptr);

/// extract_all's merge, shared with the sharded path (hipo::shard):
/// `per_task[i]` holds device task i's output rows in task output order
/// (one slot per device). Rows are concatenated in device order into
/// per-type streams, which finalize_by_type filters. Consumes `per_task`;
/// task_seconds is left empty.
ExtractionResult merge_by_task(const model::Scenario& scenario,
                               std::vector<std::vector<Candidate>> per_task,
                               const ExtractOptions& opt,
                               parallel::ThreadPool* pool = nullptr);

/// The deterministic tail of merge_by_task: `by_type[q]` must hold type-q
/// candidates in task-ascending order (ties: within-task output order) and
/// `raw_candidates` the total row count before this global filter.
/// Consumes `by_type`. When `opt.global_filter` is false the streams are
/// concatenated unfiltered, matching extract_all's behavior.
ExtractionResult finalize_by_type(std::vector<std::vector<Candidate>> by_type,
                                  std::size_t raw_candidates,
                                  std::size_t num_devices,
                                  const ExtractOptions& opt,
                                  parallel::ThreadPool* pool = nullptr);

/// Simulated Algorithm 5 timing: assign measured per-task durations to
/// `machines` virtual machines with LPT (or round-robin) and report the
/// makespan — the quantity Fig. 12 normalizes. `machines` >= number of
/// tasks reduces to max task duration, matching the paper's saturation.
double simulated_distributed_seconds(const std::vector<double>& task_seconds,
                                     std::size_t machines,
                                     bool use_lpt = true);

}  // namespace hipo::pdcs
