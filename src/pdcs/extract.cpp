#include "src/pdcs/extract.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"

namespace hipo::pdcs {

ExtractionResult extract_all(const model::Scenario& scenario,
                             const ExtractOptions& opt,
                             parallel::ThreadPool* pool) {
  const std::size_t n = scenario.num_devices();
  std::vector<double> task_seconds(n, 0.0);

  const spatial::GridIndex& index = scenario.device_index();

  std::vector<std::vector<Candidate>> per_task(n);
  auto run_task = [&](std::size_t i) {
    obs::Span span("extract.device", static_cast<std::uint64_t>(i));
    obs::Stopwatch watch;
    per_task[i] = extract_device_task(scenario, index, i, opt);
    task_seconds[i] = watch.seconds();
  };

  {
    obs::Span span("extract.tasks");
    if (pool != nullptr && pool->num_workers() > 1) {
      pool->parallel_for(n, run_task);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_task(i);
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("extract.tasks").bump(n);
  }

  ExtractionResult merged =
      merge_by_task(scenario, std::move(per_task), opt, pool);
  merged.task_seconds = std::move(task_seconds);
  return merged;
}

ExtractionResult merge_by_task(const model::Scenario& scenario,
                               std::vector<std::vector<Candidate>> per_task,
                               const ExtractOptions& opt,
                               parallel::ThreadPool* pool) {
  // Merge in device order (deterministic), then filter per charger type.
  std::size_t raw = 0;
  std::vector<std::vector<Candidate>> by_type(scenario.num_charger_types());
  for (auto& task : per_task) {
    raw += task.size();
    for (auto& c : task) by_type[c.strategy.type].push_back(std::move(c));
  }
  return finalize_by_type(std::move(by_type), raw, scenario.num_devices(),
                          opt, pool);
}

ExtractionResult finalize_by_type(std::vector<std::vector<Candidate>> by_type,
                                  std::size_t raw_candidates,
                                  std::size_t num_devices,
                                  const ExtractOptions& opt,
                                  parallel::ThreadPool* pool) {
  // Each type's dominance filter is independent, so the filters run as
  // parallel tasks; concatenating in type order keeps the output identical
  // to the sequential pass.
  obs::Span filter_span("extract.filter");
  ExtractionResult result;
  result.raw_candidates = raw_candidates;
  parallel::chunked_for(pool, by_type.size(), [&](std::size_t q) {
    if (opt.global_filter) {
      by_type[q] = filter_dominated(std::move(by_type[q]), num_devices);
    }
  });
  result.per_type_counts.assign(by_type.size(), 0);
  for (std::size_t q = 0; q < by_type.size(); ++q) {
    result.per_type_counts[q] = by_type[q].size();
    for (auto& c : by_type[q]) result.candidates.push_back(std::move(c));
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("extract.candidates_raw").bump(result.raw_candidates);
    obs::counter("extract.candidates_kept").bump(result.candidates.size());
  }
  return result;
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
