// Shard runner: drives per-shard extraction — in-process or across forked
// worker processes — and merges the per-shard candidate pools into an
// ExtractionResult that is bit-identical to pdcs::extract_all.
//
// Merge rule. Each shard's pool holds rows grouped by task, tasks
// ascending; tasks partition across shards (owner-shard rule, pairs under
// the lower-index device). A stable sort of all rows by task therefore
// reproduces extract_all's device-order merge exactly, and the per-type
// streams feed the same finalize_by_type (global dominance filter +
// type-order concatenation) extract_all runs. The result is independent of
// shard count, process count, worker threads, and frame arrival order.
//
// Processes. Workers are forked (no exec): copy-on-write shares the parsed
// scenario, each child extracts its assigned shards single-threaded and
// streams rows back over a pipe as length-prefixed JSON frames (the serve
// wire layer; doubles round-trip exactly at 17 significant digits). The
// parent multiplexes pipes with poll(), so a worker blocked on a full pipe
// never stalls the others. Children _exit(); a child error travels back as
// an {"error": ...} frame and rethrows in the parent as ConfigError.
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/shard/extract.hpp"
#include "src/shard/plan.hpp"

namespace hipo::shard {

struct RunnerOptions {
  /// Shard-grid cell count (1 degenerates to a single global shard).
  std::size_t shards = 1;
  /// Forked worker processes; 0 runs every shard in-process. Capped at the
  /// shard count.
  std::size_t processes = 0;
  pdcs::ExtractOptions extract;
  TileOptions tile;
  /// In-process mode only: parallelizes tile tasks and the merge filter.
  /// Forked workers never touch it (they run single-threaded).
  parallel::ThreadPool* pool = nullptr;
};

struct RunnerStats {
  std::size_t shards = 0;
  std::size_t processes = 0;  // 0 = in-process
  /// Per-shard extraction wall seconds (worker-measured).
  std::vector<double> shard_seconds;
  std::size_t rows = 0;
  std::size_t tile_backoffs = 0;
  /// Largest per-shard accounting peak (arena + tile transients).
  std::size_t peak_shard_bytes = 0;
  /// Sum of the per-shard arena bytes held by the parent at merge time.
  std::size_t pool_bytes = 0;
  double merge_seconds = 0.0;
};

/// Extract `scenario` through `opt.shards` spatial shards and merge. The
/// returned result (candidates, per-type counts, raw count, task seconds)
/// is bit-identical to pdcs::extract_all(scenario, opt.extract, ...).
pdcs::ExtractionResult extract_sharded(const model::Scenario& scenario,
                                       const RunnerOptions& opt,
                                       RunnerStats* stats = nullptr);

/// The merge stage alone: pools[k] must hold shard k's rows (grouped by
/// task, tasks ascending, global device ids). Exposed for tests.
pdcs::ExtractionResult merge_pools(const model::Scenario& scenario,
                                   std::vector<CandidatePool>& pools,
                                   const pdcs::ExtractOptions& opt,
                                   parallel::ThreadPool* pool = nullptr);

}  // namespace hipo::shard
