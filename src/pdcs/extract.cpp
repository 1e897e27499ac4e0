#include "src/pdcs/extract.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/util/error.hpp"

namespace hipo::pdcs {

namespace {

/// The shared tail of merge_by_task and finalize_by_type: filter `table`,
/// then move the survivors out type-major.
ExtractionResult collect_survivors(std::vector<std::vector<Candidate>>& table,
                                   std::size_t raw_candidates,
                                   std::size_t num_types,
                                   std::size_t num_devices,
                                   const ExtractOptions& opt,
                                   parallel::ThreadPool* pool) {
  obs::Span filter_span("extract.filter");
  const auto kept = filter_by_type(table, num_types, num_devices, opt, pool);
  ExtractionResult result;
  result.raw_candidates = raw_candidates;
  for (const auto& survivors : kept) {
    result.per_type_counts.push_back(survivors.size());
    for (const RowRef ref : survivors) {
      result.candidates.push_back(std::move(table[ref.slot][ref.row]));
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("extract.candidates_raw").bump(result.raw_candidates);
    obs::counter("extract.candidates_kept").bump(result.candidates.size());
  }
  return result;
}

}  // namespace

ExtractionResult extract_all(const model::Scenario& scenario,
                             const ExtractOptions& opt,
                             parallel::ThreadPool* pool) {
  const std::size_t n = scenario.num_devices();
  std::vector<std::size_t> tasks(n);
  std::iota(tasks.begin(), tasks.end(), std::size_t{0});
  std::vector<std::vector<Candidate>> per_task(n);
  std::vector<double> task_seconds;
  {
    obs::Span span("extract.tasks");
    task_seconds = run_tasks(scenario, tasks, opt, pool, per_task);
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("extract.tasks").bump(n);
  }

  ExtractionResult merged =
      merge_by_task(scenario, std::move(per_task), opt, pool);
  merged.task_seconds = std::move(task_seconds);
  return merged;
}

std::vector<double> run_tasks(const model::Scenario& scenario,
                              std::span<const std::size_t> tasks,
                              const ExtractOptions& opt,
                              parallel::ThreadPool* pool,
                              std::vector<std::vector<Candidate>>& per_task) {
  HIPO_ASSERT(per_task.size() == scenario.num_devices());
  const spatial::GridIndex& index = scenario.device_index();
  std::vector<double> seconds(tasks.size(), 0.0);
  parallel::chunked_for(pool, tasks.size(), [&](std::size_t k) {
    const std::size_t i = tasks[k];
    obs::Span span("extract.device", static_cast<std::uint64_t>(i));
    obs::Stopwatch watch;
    per_task[i] = extract_device_task(scenario, index, i, opt);
    seconds[k] = watch.seconds();
  });
  return seconds;
}

std::vector<std::vector<RowRef>> filter_by_type(
    const std::vector<std::vector<Candidate>>& table, std::size_t num_types,
    std::size_t num_devices, const ExtractOptions& opt,
    parallel::ThreadPool* pool) {
  std::vector<std::vector<RowRef>> by_type = rows_by_type(table, num_types);
  if (opt.global_filter) filter_rows(table, by_type, num_devices, pool);
  return by_type;
}

std::vector<std::vector<RowRef>> rows_by_type(
    const std::vector<std::vector<Candidate>>& table, std::size_t num_types) {
  std::vector<std::vector<RowRef>> by_type(num_types);
  for (std::size_t slot = 0; slot < table.size(); ++slot) {
    for (std::size_t row = 0; row < table[slot].size(); ++row) {
      const std::size_t q = table[slot][row].strategy.type;
      HIPO_ASSERT(q < num_types);
      by_type[q].push_back({slot, row});
    }
  }
  return by_type;
}

void filter_rows(const std::vector<std::vector<Candidate>>& table,
                 std::vector<std::vector<RowRef>>& by_type,
                 std::size_t num_devices, parallel::ThreadPool* pool) {
  // Each type's filter is independent, so the filters run as parallel
  // tasks, each writing only its own type's list.
  parallel::chunked_for(pool, by_type.size(), [&](std::size_t q) {
    const std::vector<RowRef>& rows = by_type[q];
    const auto at = [&](std::size_t i) {
      return row_view(table[rows[i].slot][rows[i].row]);
    };
    DominanceFilter filter;
    std::vector<RowRef> kept;
    for (const std::size_t i :
         filter.run(RowSource(rows.size(), at), num_devices)) {
      kept.push_back(rows[i]);
    }
    by_type[q] = std::move(kept);
  });
}

ExtractionResult merge_by_task(const model::Scenario& scenario,
                               std::vector<std::vector<Candidate>> per_task,
                               const ExtractOptions& opt,
                               parallel::ThreadPool* pool) {
  std::size_t raw = 0;
  for (const auto& task : per_task) raw += task.size();
  return collect_survivors(per_task, raw, scenario.num_charger_types(),
                           scenario.num_devices(), opt, pool);
}

ExtractionResult finalize_by_type(std::vector<std::vector<Candidate>> by_type,
                                  std::size_t raw_candidates,
                                  std::size_t num_devices,
                                  const ExtractOptions& opt,
                                  parallel::ThreadPool* pool) {
  return collect_survivors(by_type, raw_candidates, by_type.size(),
                           num_devices, opt, pool);
}

double simulated_distributed_seconds(const std::vector<double>& task_seconds,
                                     std::size_t machines, bool use_lpt) {
  if (task_seconds.empty()) return 0.0;
  // Algorithm 5: with machines >= tasks each task gets its own machine.
  if (machines >= task_seconds.size()) {
    return *std::max_element(task_seconds.begin(), task_seconds.end());
  }
  const auto schedule = use_lpt
                            ? parallel::lpt_schedule(task_seconds, machines)
                            : parallel::round_robin_schedule(task_seconds,
                                                             machines);
  return schedule.makespan;
}

}  // namespace hipo::pdcs
