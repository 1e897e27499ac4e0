// Shard runner: drives per-shard extraction — in-process or across forked
// worker processes — and merges the per-task rows into an ExtractionResult
// that is bit-identical to pdcs::extract_all.
//
// Merge rule. Every task's rows land in its own slot of one per-task table
// (one slot per device); tasks partition across shards (owner-shard rule,
// pairs under the lower-index device), so each slot is written by exactly
// one shard. pdcs::merge_by_task then runs extract_all's own global filter
// (pdcs::filter_by_type, device-order input) on that table and moves the
// survivors out type-major. The result is independent of shard count,
// process count, worker threads, and frame arrival order.
//
// Processes. Workers are forked (no exec): copy-on-write shares the parsed
// scenario, each child extracts its assigned shards single-threaded and
// streams rows back over a pipe as length-prefixed JSON frames (the frame
// codec of obs/wire.hpp, which the serve daemon shares; doubles round-trip
// exactly at 17 significant digits). Frames on one pipe arrive in order, so
// each task slot fills in task output order. The parent multiplexes pipes
// with poll(), so a worker blocked on a full pipe never stalls the others,
// and validates every decoded field before it indexes anything. Children
// _exit(). The first failure — a child's {"error": ...} frame or a frame
// the parent cannot decode — closes every pipe, reaps every child, and
// rethrows in the parent as ConfigError.
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/obs/wire.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/shard/extract.hpp"
#include "src/shard/plan.hpp"

namespace hipo::shard {

struct RunnerOptions {
  /// Shard-grid cell count (1 degenerates to a single global shard).
  std::size_t shards = 1;
  /// Forked worker processes; 0 runs every shard in-process. Capped at the
  /// shard count. Precondition when > 0: the calling process has no live
  /// thread-pool workers (fork copies only the calling thread, and a child
  /// can block forever on a lock a pool worker held at the fork). Start
  /// pools after extract_sharded returns, as hipo_shard does.
  std::size_t processes = 0;
  pdcs::ExtractOptions extract;
  /// Per-shard ceiling on retained-row bytes (shard::retained_bytes); 0
  /// disables it. A shard over it fails with ConfigError. The hipo_shard
  /// tool maps --mem-ceiling-mb onto it.
  std::size_t mem_ceiling_bytes = 0;
  /// In-process mode only: parallelizes shard tasks and the merge filter.
  /// Forked workers never touch it (they run single-threaded).
  parallel::ThreadPool* pool = nullptr;
};

struct RunnerStats {
  std::size_t shards = 0;
  std::size_t processes = 0;  // 0 = in-process
  /// Per-shard extraction wall seconds (worker-measured).
  std::vector<double> shard_seconds;
  std::size_t rows = 0;
  /// Largest per-shard retained-row bytes (ShardStats::peak_bytes).
  std::size_t peak_shard_bytes = 0;
  /// Sum of the per-shard retained-row bytes: the table the merge consumes.
  std::size_t pool_bytes = 0;
  double merge_seconds = 0.0;
};

/// Extract `scenario` through `opt.shards` spatial shards and merge. The
/// returned result (candidates, per-type counts, raw count, task seconds)
/// is bit-identical to pdcs::extract_all(scenario, opt.extract, ...).
pdcs::ExtractionResult extract_sharded(const model::Scenario& scenario,
                                       const RunnerOptions& opt,
                                       RunnerStats* stats = nullptr);

/// Parent-side decode of one worker frame's `rows` array for shard
/// `shard_id`. Each row is validated before it is appended to
/// `per_task[task]` (one slot per device of `scenario`): the task id is an
/// integer < n owned by the shard, the type an integer < the charger type
/// count, the covered ids integers < n strictly ascending, with as many
/// powers, all finite. ConfigError on any violation. Exposed for tests.
void decode_rows(const obs::Json& rows, std::size_t shard_id,
                 const model::Scenario& scenario, const ShardPlan& plan,
                 std::vector<std::vector<pdcs::Candidate>>& per_task);

}  // namespace hipo::shard
