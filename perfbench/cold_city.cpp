// cold_city: a seeded set of 1k-device, 50-obstacle, sparse-budget cities
// cycled through core::solve by one caller on a pool, then one solve with
// no pool as the reference. Extraction is nearly all of a cold solve, so
// pdcs, spatial and the LOS cache carry this workload; serve and the greedy
// do almost nothing. The traced run also sends each replayed city through
// shard::extract_sharded, so the shard layer is measured here too.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "spans.hpp"
#include "src/core/solver.hpp"
#include "src/model/los_cache.hpp"
#include "src/obs/json.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate_gen.hpp"
#include "src/pdcs/extract.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/shard/runner.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kScale = 5;               // 1000 devices, 50 obstacles
constexpr std::size_t kScenarios = 3;   // cycled by the timed loop
constexpr std::size_t kShards = 4;      // the traced run's sharded replay

using hipo::model::Scenario;

template <typename T>
void add_bytes(Digest& d, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  d.add(std::string_view(buf, sizeof(T)));
}

/// Digest of an extraction's candidate pool: every strategy, covered set
/// and power bit pattern, in order, plus the per-type counts.
std::string pool_digest(const hipo::pdcs::ExtractionResult& r) {
  Digest d;
  add_bytes(d, r.raw_candidates);
  for (const std::size_t c : r.per_type_counts) add_bytes(d, c);
  for (const auto& c : r.candidates) {
    add_bytes(d, c.strategy.pos.x);
    add_bytes(d, c.strategy.pos.y);
    add_bytes(d, c.strategy.orientation);
    add_bytes(d, c.strategy.type);
    for (const std::size_t j : c.covered) add_bytes(d, j);
    for (const double p : c.powers) add_bytes(d, p);
  }
  return d.hex();
}

/// Deliberately broken copy of a placement (the --corrupt self-test).
hipo::model::Placement corrupted(hipo::model::Placement placement) {
  if (placement.empty()) {
    placement.push_back({});
  } else {
    placement.front().orientation += 0.5;
  }
  return placement;
}

/// One city's solve check: same placement as the reference, a valid
/// placement, and the reported utility equal to an independent exact
/// evaluation.
void check_solve(const Scenario& scenario, const hipo::core::SolveResult& r,
                 const std::string& reference, bool corrupt, Report& report,
                 Digest& digest) {
  const hipo::model::Placement placement =
      corrupt ? corrupted(r.placement) : r.placement;
  const std::string text = placement_text(placement);
  digest.add(text);
  if (text != reference) {
    report.fail("cold_city: placement differs from the reference solve");
    return;
  }
  try {
    scenario.validate_placement(placement);
  } catch (const std::exception& e) {
    report.fail(std::string("cold_city: invalid placement: ") + e.what());
    return;
  }
  if (scenario.placement_utility(placement) != r.utility) {
    report.fail("cold_city: reported utility differs from exact evaluation");
  }
}

/// Per-task work of Algorithm 4 split into position generation, the
/// point-case sweep and the per-task filter — the same public calls
/// extract_device_task makes, in the same order.
struct TaskSplit {
  double positions_s = 0.0;
  double point_case_s = 0.0;
  double filter_s = 0.0;
  std::size_t positions = 0;
  std::size_t rows = 0;
};

TaskSplit replay_task(const Scenario& scenario,
                      const hipo::spatial::GridIndex& index, std::size_t i,
                      const hipo::pdcs::ExtractOptions& opt) {
  TaskSplit split;
  hipo::model::LosCache los(scenario);
  const hipo::geom::Vec2 oi = scenario.device(i).pos;
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    const double d_max = scenario.charger_type(q).d_max;
    hipo::obs::Stopwatch watch;
    const auto neighbors = index.query_radius(oi, 2.0 * d_max);
    std::vector<hipo::geom::Vec2> positions =
        hipo::pdcs::singleton_candidate_positions(scenario, q, i, opt);
    for (const std::size_t j : neighbors) {
      if (j <= i) continue;
      const auto pts =
          hipo::pdcs::pair_candidate_positions(scenario, q, i, j, opt);
      positions.insert(positions.end(), pts.begin(), pts.end());
    }
    split.positions_s += watch.seconds();
    split.positions += positions.size();

    watch.reset();
    std::vector<hipo::pdcs::Candidate> rows;
    for (const hipo::geom::Vec2 p : positions) {
      const auto pool = index.query_radius(p, d_max + hipo::geom::kCoverEps);
      auto cands =
          hipo::pdcs::extract_point_case(scenario, q, p, pool, &los);
      for (auto& c : cands) rows.push_back(std::move(c));
    }
    split.point_case_s += watch.seconds();
    split.rows += rows.size();

    watch.reset();
    const auto kept =
        hipo::pdcs::filter_dominated(std::move(rows), scenario.num_devices());
    split.filter_s += watch.seconds();
  }
  return split;
}

/// Per-replay layer figures, summed over replays.
struct ReplaySums {
  double task_s_sum = 0.0;
  double task_s_max = 0.0;
  double busy_share = 0.0;
  double positions_s = 0.0;
  double point_case_s = 0.0;
  double filter_s = 0.0;
  double positions = 0.0;
  double rows = 0.0;
  double task_survivors = 0.0;
  double global_survivors = 0.0;
  double shard_worker_max = 0.0;
  double shard_imbalance = 0.0;
  double shard_merge = 0.0;
  double shard_overhead = 0.0;
  double shard_rows = 0.0;
  double shard_pool_bytes = 0.0;
  std::size_t replays = 0;
};

/// Trace-only: the city through shard::extract_sharded with kShards shards
/// on forked workers, the shard layer's caller. Forked workers count
/// against the CPUs like pool threads, and the parent polls beside them.
/// Returns false when the merged pool differs from `reference`.
bool replay_sharded(const Scenario& scenario, const std::string& reference,
                    ReplaySums& sums) {
  hipo::shard::RunnerOptions opts;
  opts.shards = kShards;
  opts.processes = std::min(kShards, cpu_count() > 1 ? cpu_count() - 1 : 1);
  hipo::shard::RunnerStats stats;
  hipo::obs::Stopwatch watch;
  hipo::pdcs::ExtractionResult merged;
  {
    spans::Span s("shard.extract_s");
    merged = hipo::shard::extract_sharded(scenario, opts, &stats);
  }
  const double seconds = watch.seconds();
  double slowest = 0.0, total = 0.0;
  for (const double t : stats.shard_seconds) {
    slowest = std::max(slowest, t);
    total += t;
  }
  sums.shard_worker_max += slowest;
  sums.shard_imbalance +=
      ratio(slowest, total / static_cast<double>(stats.shard_seconds.size()));
  sums.shard_merge += stats.merge_seconds;
  sums.shard_overhead += seconds - slowest - stats.merge_seconds;
  sums.shard_rows += static_cast<double>(stats.rows);
  sums.shard_pool_bytes += static_cast<double>(stats.pool_bytes);
  return pool_digest(merged) == reference;
}

/// Trace-only: the steps core::solve runs (extract_all's grid build, task
/// loop and global filter; the matrix pack; selection; exact evaluation),
/// replayed through the same public functions so each gets its own span.
/// Returns false when the replay's placement differs from `solved`.
bool replay_solve(const Scenario& scenario, hipo::parallel::ThreadPool& pool,
                  const hipo::core::SolveResult& solved, ReplaySums& sums) {
  namespace pdcs = hipo::pdcs;
  const pdcs::ExtractOptions opt;
  const std::size_t n = scenario.num_devices();
  std::vector<double> task_s(n, 0.0);
  std::vector<std::vector<pdcs::Candidate>> per_task(n);
  std::optional<hipo::spatial::GridIndex> index;
  pdcs::ExtractionResult extraction;
  hipo::obs::Stopwatch extract_watch;
  {
    spans::Span s("pdcs.extract_s");
    {
      spans::Span g("spatial.grid_build_s");
      std::vector<hipo::geom::Vec2> points;
      points.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        points.push_back(scenario.device(j).pos);
      }
      index.emplace(scenario.region(), std::move(points));
    }
    {
      spans::Span t("pdcs.tasks_s");
      pool.parallel_for(n, [&](std::size_t i) {
        hipo::obs::Stopwatch watch;
        per_task[i] = pdcs::extract_device_task(scenario, *index, i, opt);
        task_s[i] = watch.seconds();
      });
    }
    std::size_t raw = 0;
    std::vector<std::vector<pdcs::Candidate>> by_type(
        scenario.num_charger_types());
    for (auto& task : per_task) {
      raw += task.size();
      for (auto& c : task) by_type[c.strategy.type].push_back(std::move(c));
    }
    spans::Span f("pdcs.global_filter_s");
    extraction = pdcs::finalize_by_type(std::move(by_type), raw, n, opt,
                                        &pool);
  }
  const double extract_s = extract_watch.seconds();
  const std::string extracted = pool_digest(extraction);

  hipo::opt::CoverageMatrix matrix;
  {
    spans::Span m("opt.matrix_pack_s");
    matrix = hipo::opt::CoverageMatrix(extraction.candidates, n);
  }
  hipo::opt::GreedyResult greedy;
  {
    spans::Span s("opt.select_s");
    greedy = hipo::opt::select_strategies(
        scenario, matrix, hipo::opt::GreedyMode::kLazyGlobal,
        hipo::opt::ObjectiveKind::kUtility, &pool);
  }
  {
    spans::Span e("model.exact_eval_s");
    hipo::model::LosCache cache(scenario);
    (void)cache.placement_utility(greedy.placement, &pool);
  }

  // The task loop again, split by stage (thread seconds, like task_s).
  std::vector<TaskSplit> splits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    splits[i] = replay_task(scenario, *index, i, opt);
  });

  double task_sum = 0.0, task_max = 0.0;
  for (const double t : task_s) {
    task_sum += t;
    task_max = std::max(task_max, t);
  }
  sums.task_s_sum += task_sum;
  sums.task_s_max += task_max;
  sums.busy_share += ratio(
      task_sum, static_cast<double>(pool.num_workers() + 1) * extract_s);
  for (const TaskSplit& s : splits) {
    sums.positions_s += s.positions_s;
    sums.point_case_s += s.point_case_s;
    sums.filter_s += s.filter_s;
    sums.positions += static_cast<double>(s.positions);
    sums.rows += static_cast<double>(s.rows);
  }
  sums.task_survivors += static_cast<double>(extraction.raw_candidates);
  sums.global_survivors += static_cast<double>(extraction.candidates.size());
  ++sums.replays;
  return placement_text(greedy.placement) == placement_text(solved.placement) &&
         replay_sharded(scenario, extracted, sums);
}

}  // namespace

void run_cold_city(const Args& args, Report& report) {
  const int scale = args.tiny ? 1 : kScale;
  const std::size_t workers = cpu_count() > 1 ? cpu_count() - 1 : 1;

  std::vector<Scenario> cities;
  std::unique_ptr<hipo::parallel::ThreadPool> pool;
  hipo::core::SolveResult warm;
  const double setup_s = timed_setup(args.tiny ? 1 : 3, [&] {
    pool.reset();
    cities.clear();
    for (std::size_t k = 0; k < kScenarios; ++k) {
      cities.push_back(make_city(scale, false, hipo::seed_combine(args.seed, k)));
    }
    pool = std::make_unique<hipo::parallel::ThreadPool>(workers);
    hipo::core::SolveOptions opts;
    opts.pool = pool.get();
    warm = hipo::core::solve(cities[0], opts);
  });
  report.info("pool_workers", std::to_string(workers));
  report.info("callers", "1");
  report.info("devices", std::to_string(cities[0].num_devices()));
  report.info("obstacles", std::to_string(cities[0].num_obstacles()));
  report.info("chargers", std::to_string(cities[0].num_chargers()));

  if (args.trace) {
    hipo::obs::set_metrics_enabled(true);
    hipo::obs::reset_metrics();
    spans::enable(true);
  }

  // Timed: pooled cold solves, cycling the cities. In the traced run the
  // loop gets half the time and the layer replay the other half.
  hipo::core::SolveOptions opts;
  opts.pool = pool.get();
  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::string> reference(kScenarios);
  reference[0] = placement_text(warm.placement);
  std::vector<double> latencies;
  Digest digest;
  std::vector<hipo::core::SolveResult> last(kScenarios);
  double rss_mb = 0.0;
  hipo::obs::Stopwatch wall;
  for (std::size_t i = 0; wall.seconds() < loop_s || latencies.size() < 2;
       ++i) {
    const std::size_t k = i % kScenarios;
    hipo::obs::Stopwatch watch;
    hipo::core::SolveResult r;
    {
      spans::Span s("core.solve_s");
      r = hipo::core::solve(cities[k], opts);
    }
    latencies.push_back(watch.seconds());
    report.attempt();
    if (reference[k].empty()) reference[k] = placement_text(r.placement);
    check_solve(cities[k], r, reference[k], args.corrupt && i == 0, report,
                digest);
    last[k] = std::move(r);
    if (latencies.size() == kScenarios) rss_mb = peak_rss_mb();
  }
  const double measured = wall.seconds();
  const hipo::obs::MetricsSnapshot snap = hipo::obs::metrics_snapshot();

  // Reference path: the same first city with no pool at all.
  hipo::core::SolveResult serial;
  {
    hipo::obs::Stopwatch watch;
    spans::Span s("core.solve_1t_s");
    serial = hipo::core::solve(cities[0], {});
    report.info("cold_solve_1t_s", hipo::obs::json_double(watch.seconds()));
  }
  report.attempt();
  check_solve(cities[0], serial, reference[0], false, report, digest);

  if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  const double tail = slowest_input_median(latencies, kScenarios);
  report_end_to_end(report, setup_s, latencies, tail, measured, rss_mb);
  report.samples("tail_ms", latencies.size() / kScenarios, 0.5);
  report.info("placement_digest", "\"" + digest.hex() + "\"");
  report.info("placements", std::to_string(digest.count()));
  if (!args.trace) return;

  ReplaySums sums;
  const std::size_t solved = std::min(kScenarios, latencies.size());
  hipo::obs::Stopwatch replay_wall;
  for (std::size_t k = 0; sums.replays == 0 || replay_wall.seconds() < loop_s;
       k = (k + 1) % solved) {
    report.attempt();
    if (!replay_solve(cities[k], *pool, last[k], sums)) {
      report.fail("cold_city: replayed placement or sharded pool differs");
    }
  }
  const auto spans_by_name = spans::summarize();
  const double ops = static_cast<double>(latencies.size());
  const double reps = static_cast<double>(sums.replays);
  report_span_layers(report, spans_by_name);
  report_obs_layers(report, snap, ops);
  report_traced(report, latencies, tail, measured);
  report.metric("pdcs.task_s_sum", sums.task_s_sum / reps);
  report.metric("pdcs.task_s_max", sums.task_s_max / reps);
  report.metric("parallel.busy_share", sums.busy_share / reps);
  report.metric("pdcs.positions_s", sums.positions_s / reps);
  report.metric("pdcs.point_case_s", sums.point_case_s / reps);
  report.metric("pdcs.task_filter_s", sums.filter_s / reps);
  report.metric("pdcs.replay_coverage",
                ratio(sums.positions_s + sums.point_case_s + sums.filter_s,
                      sums.task_s_sum));
  report.metric("pdcs.positions", sums.positions / reps);
  report.metric("pdcs.point_case_rows", sums.rows / reps);
  report.metric("pdcs.task_survivors", sums.task_survivors / reps);
  report.metric("pdcs.global_survivors", sums.global_survivors / reps);
  report.metric("pdcs.task_yield", ratio(sums.task_survivors, sums.rows));
  report.metric("pdcs.global_yield",
                ratio(sums.global_survivors, sums.task_survivors));
  report.metric("shard.worker_s_max", sums.shard_worker_max / reps);
  report.metric("shard.imbalance", sums.shard_imbalance / reps);
  report.metric("shard.merge_s", sums.shard_merge / reps);
  report.metric("shard.overhead_s", sums.shard_overhead / reps);
  report.metric("shard.rows", sums.shard_rows / reps);
  report.metric("shard.pool_bytes", sums.shard_pool_bytes / reps);
  // The facade's own time: the real solve minus the replayed steps (two
  // separate measurements, so it can come out slightly negative).
  const double replayed = report.value("pdcs.extract_s") +
                          report.value("opt.matrix_pack_s") +
                          report.value("opt.select_s");
  report.metric("core.facade_self_s", report.value("core.solve_s") - replayed);
  report.metric("opt.greedy_s", report.value("opt.select_s") -
                                    report.value("model.exact_eval_s"));
}

}  // namespace perfbench
