// Full PDCS extraction: sequential (Algorithm 2 applied to every
// multi-feasible geometric area via the per-device task decomposition) and
// distributed (Algorithm 5: per-device tasks, LPT-assigned to machines).
#pragma once

#include <compare>
#include <cstddef>
#include <span>
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

/// The one task loop: extract_device_task for each device index in `tasks`,
/// writing its rows into `per_task[tasks[k]]` (so `per_task` needs one slot
/// per device). Runs on `pool` when it has several workers; each task writes
/// its own slot, so the output is identical for any worker count. Returns
/// each task's wall-clock seconds, parallel to `tasks`.
std::vector<double> run_tasks(const model::Scenario& scenario,
                              std::span<const std::size_t> tasks,
                              const ExtractOptions& opt,
                              parallel::ThreadPool* pool,
                              std::vector<std::vector<Candidate>>& per_task);

/// A row of a table of row vectors: `table[slot][row]`. Ordered by table
/// position (slot-major, then row).
struct RowRef {
  std::size_t slot;
  std::size_t row;

  friend auto operator<=>(const RowRef&, const RowRef&) = default;
};

/// The one global dominance filter (Algorithm 4's final step, per charger
/// type): rows_by_type, then filter_rows when `opt.global_filter` is set.
/// Type-q rows of `table` enter the type-q filter in table order; element q
/// of the result holds the type-q survivors in survivor order. When
/// `opt.global_filter` is false every row survives, in table order. The
/// result is identical for any worker count.
std::vector<std::vector<RowRef>> filter_by_type(
    const std::vector<std::vector<Candidate>>& table, std::size_t num_types,
    std::size_t num_devices, const ExtractOptions& opt,
    parallel::ThreadPool* pool = nullptr);

/// filter_by_type's bucketing step: element q lists the type-q rows of
/// `table` in table order (slot-major, then row order within a slot).
std::vector<std::vector<RowRef>> rows_by_type(
    const std::vector<std::vector<Candidate>>& table, std::size_t num_types);

/// filter_by_type's filter step: replaces each list `by_type[q]` (rows of
/// one charger type, in the order they enter the filter) with its
/// DominanceFilter survivors in survivor order. The lists are filtered as
/// parallel tasks on `pool`; the result is identical for any worker count.
void filter_rows(const std::vector<std::vector<Candidate>>& table,
                 std::vector<std::vector<RowRef>>& by_type,
                 std::size_t num_devices, parallel::ThreadPool* pool = nullptr);

/// extract_all's merge, shared with the sharded path (hipo::shard):
/// `per_task[i]` holds device task i's output rows in task output order
/// (one slot per device). filter_by_type filters the table, and the
/// survivors move out type-major. Consumes `per_task`; task_seconds is left
/// empty.
ExtractionResult merge_by_task(const model::Scenario& scenario,
                               std::vector<std::vector<Candidate>> per_task,
                               const ExtractOptions& opt,
                               parallel::ThreadPool* pool = nullptr);

/// merge_by_task over a table whose slot q holds the type-q rows (in
/// task-ascending order, for the result to equal extract_all's);
/// `raw_candidates` is the row count before the filter. Consumes `by_type`.
/// Kept for the frozen perfbench replay, which times the filter by itself.
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
