// Micro-benchmarks (google-benchmark) for the optimization substrate:
// objective gains, greedy variants (sequential and on a thread pool),
// dominance filtering, Hungarian, LPT.
//
// `--parallel-json[=PATH]` switches to a self-timed parallel-speedup run:
// greedy selection on a large candidate set at 1/2/4/8 worker threads,
// verified thread-count-invariant, emitted as machine-readable JSON
// (BENCH_parallel.json). `--parallel-mult=N` scales the scenario (device
// multiplier; the default targets >= 2000 candidates), `--parallel-reps=N`
// sets repetitions per point (best-of).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/ext/hungarian.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/local_search.hpp"
#include "src/opt/objective.hpp"
#include "src/parallel/lpt.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/rng.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"

namespace {

using namespace hipo;

struct Fixture {
  model::Scenario scenario;
  pdcs::ExtractionResult extraction;

  static const Fixture& get() {
    static Fixture f = [] {
      model::GenOptions opt;
      Rng rng(42);
      Fixture fx{model::make_paper_scenario(opt, rng), {}};
      fx.extraction = pdcs::extract_all(fx.scenario);
      return fx;
    }();
    return f;
  }
};

/// Large instance for the parallel-selection benchmarks: dense topology so
/// the greedy argmax scans thousands of candidates per round.
model::Scenario make_big_scenario(int device_multiplier) {
  model::GenOptions opt;
  opt.device_multiplier = device_multiplier;
  opt.num_obstacles = 6;
  Rng rng(42);
  return model::make_paper_scenario(opt, rng);
}

struct BigFixture {
  model::Scenario scenario;
  pdcs::ExtractionResult extraction;

  explicit BigFixture(int device_multiplier)
      : scenario(make_big_scenario(device_multiplier)) {
    // Extraction itself on all cores — candidates are scheduling-invariant.
    // The global dominance filter stays off: the parallel benchmarks target
    // the argmax-bound regime, where greedy scans the raw candidate set.
    parallel::ThreadPool pool;
    pdcs::ExtractOptions opt;
    opt.global_filter = false;
    extraction = pdcs::extract_all(scenario, opt, &pool);
  }

  static const BigFixture& get() {
    static BigFixture f(12);
    return f;
  }
};

void BM_ObjectiveGain(benchmark::State& state) {
  const auto& f = Fixture::get();
  const opt::ChargingObjective objective(f.scenario,
                                         f.extraction.candidates);
  opt::ChargingObjective::State s(objective);
  s.add(0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.gain(i % f.extraction.candidates.size()));
    ++i;
  }
}
BENCHMARK(BM_ObjectiveGain);

void BM_GreedyPerType(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::select_strategies(
        f.scenario, f.extraction.candidates, opt::GreedyMode::kPerType));
  }
}
BENCHMARK(BM_GreedyPerType);

void BM_GreedyLazyGlobal(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::select_strategies(
        f.scenario, f.extraction.candidates, opt::GreedyMode::kLazyGlobal));
  }
}
BENCHMARK(BM_GreedyLazyGlobal);

void BM_LocalSearch(benchmark::State& state) {
  const auto& f = Fixture::get();
  const auto greedy = opt::select_strategies(
      f.scenario, f.extraction.candidates, opt::GreedyMode::kLazyGlobal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::local_search_improve(
        f.scenario, f.extraction.candidates, greedy));
  }
}
BENCHMARK(BM_LocalSearch);

void BM_DominanceFilter(benchmark::State& state) {
  const auto& f = Fixture::get();
  pdcs::ExtractOptions no_filter;
  no_filter.global_filter = false;
  const auto raw = pdcs::extract_all(f.scenario, no_filter);
  for (auto _ : state) {
    auto copy = raw.candidates;
    benchmark::DoNotOptimize(
        pdcs::filter_dominated(std::move(copy), f.scenario.num_devices()));
  }
}
BENCHMARK(BM_DominanceFilter);

// The parallel-speedup entry: greedy selection over the big candidate set
// with a pool of range(0) workers. Identical output for every pool size.
void BM_GreedyGlobalParallel(benchmark::State& state) {
  const auto& f = BigFixture::get();
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::select_strategies(
        f.scenario, f.extraction.candidates, opt::GreedyMode::kGlobal,
        opt::ObjectiveKind::kUtility, &pool));
  }
}
BENCHMARK(BM_GreedyGlobalParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> cost(n * n);
  for (double& c : cost) c = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ext::hungarian(cost, n, n));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(128);

void BM_LptSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> tasks(n);
  for (double& t : tasks) t = rng.uniform(0.01, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::lpt_schedule(tasks, 16));
  }
}
BENCHMARK(BM_LptSchedule)->Arg(64)->Arg(1024);

struct SpeedupPoint {
  int threads = 0;
  double seconds = 0.0;
  double simulated_speedup = 1.0;
};

/// Per-chunk durations of one full argmax sweep (the unit every greedy
/// round hands to the pool): time each fixed opt::kArgmaxGrain chunk of
/// `State::best_gain` individually, best-of-`reps`. Each rep starts from a
/// fresh State, so every chunk refreshes all of its rows — the first
/// round's full evaluation. The chunking matches `opt::select_strategies`
/// exactly, so LPT over these durations is the same simulated-machines
/// substitution the Fig. 12 harness uses for Algorithm 5 (see DESIGN.md) —
/// it predicts the m-worker makespan on hosts with more cores than this
/// one.
std::vector<double> argmax_chunk_durations(
    const model::Scenario& scenario,
    const std::vector<pdcs::Candidate>& candidates, int reps) {
  const opt::ChargingObjective objective(scenario, candidates);
  const std::size_t n = candidates.size();
  const std::size_t chunks = (n + opt::kArgmaxGrain - 1) / opt::kArgmaxGrain;
  std::vector<double> durations(chunks, 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    opt::ChargingObjective::State state(objective);
    state.enable_incremental();
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * opt::kArgmaxGrain;
      const std::size_t end = std::min(n, begin + opt::kArgmaxGrain);
      obs::Stopwatch timer;
      benchmark::DoNotOptimize(state.best_gain(begin, end));
      const double elapsed = timer.seconds();
      if (rep == 0 || elapsed < durations[c]) durations[c] = elapsed;
    }
  }
  return durations;
}

/// Times greedy selection (global argmax mode) at several pool sizes on one
/// big instance, requiring the selections to be identical, and writes the
/// JSON record the acceptance gate reads (BENCH_parallel.json). Records the
/// measured wall-clock speedup (meaningful only when the host has that many
/// cores — `cores` is in the JSON) alongside the chunk-level LPT-simulated
/// speedup, which is hardware-independent.
int run_parallel_speedup(const std::string& out_path, int device_multiplier,
                         int reps) {
  // Metrics ride along (embedded in the JSON for provenance); they never
  // change results and their enabled cost is relaxed thread-local atomics.
  obs::set_metrics_enabled(true);
  BigFixture fixture(device_multiplier);
  const auto& candidates = fixture.extraction.candidates;
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "parallel speedup: " << fixture.scenario.num_devices()
            << " devices, " << candidates.size() << " candidates, " << cores
            << " cores\n";

  const auto chunk_durations =
      argmax_chunk_durations(fixture.scenario, candidates, reps);
  const double sweep_seconds =
      std::accumulate(chunk_durations.begin(), chunk_durations.end(), 0.0);

  std::vector<SpeedupPoint> points;
  double reference_utility = 0.0;
  bool identical = true;
  for (const int threads : {1, 2, 4, 8}) {
    parallel::ThreadPool pool(static_cast<std::size_t>(threads));
    opt::GreedyResult result;
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      obs::Stopwatch timer;
      result = opt::select_strategies(fixture.scenario, candidates,
                                      opt::GreedyMode::kGlobal,
                                      opt::ObjectiveKind::kUtility, &pool);
      const double elapsed = timer.seconds();
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    if (points.empty()) {
      reference_utility = result.exact_utility;
    } else if (result.exact_utility != reference_utility) {
      identical = false;
    }
    const double makespan =
        parallel::lpt_schedule(chunk_durations,
                               static_cast<std::size_t>(threads))
            .makespan;
    const double simulated = makespan > 0.0 ? sweep_seconds / makespan : 1.0;
    points.push_back({threads, best, simulated});
    std::printf("  threads=%d  %8.2f ms  (measured %.2fx, simulated %.2fx)\n",
                threads, best * 1e3, points.front().seconds / best,
                simulated);
  }
  if (!identical) {
    std::cerr << "ERROR: utility differs across thread counts\n";
    return 1;
  }

  std::ofstream json(out_path);
  if (!json.good()) {
    std::cerr << "cannot open output file " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_opt_parallel\",\n  \"build\": "
       << obs::build_info_json() << ",\n  \"cores\": " << cores
       << ",\n  \"devices\": " << fixture.scenario.num_devices()
       << ",\n  \"candidates\": " << candidates.size()
       << ",\n  \"argmax_chunks\": " << chunk_durations.size()
       << ",\n  \"greedy_global\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    json << "    {\"threads\": " << points[i].threads
         << ", \"seconds\": " << points[i].seconds << ", \"speedup\": "
         << points.front().seconds / points[i].seconds
         << ", \"simulated_speedup\": " << points[i].simulated_speedup << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"utilities_identical\": true,\n  \"peak_rss_bytes\": "
       << obs::peak_rss_bytes() << ",\n  \"metrics\": "
       << obs::metrics_json(obs::metrics_snapshot()) << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

// Custom main: plain google-benchmark unless --parallel-json is passed, in
// which case the self-timed speedup run executes instead (gbench flag
// parsing would reject the extra flags).
int main(int argc, char** argv) {
  std::string json_path;
  int device_multiplier = 12;
  int reps = 3;
  bool parallel_mode = false;
  std::vector<char*> remaining{argv, argv + argc};
  auto consume = [&](const std::string& arg) {
    const auto starts = [&](const std::string& p) {
      return arg.rfind(p, 0) == 0;
    };
    if (arg == "--parallel-json") {
      parallel_mode = true;
      json_path = "BENCH_parallel.json";
    } else if (starts("--parallel-json=")) {
      parallel_mode = true;
      json_path = arg.substr(std::string("--parallel-json=").size());
    } else if (starts("--parallel-mult=")) {
      device_multiplier = std::stoi(arg.substr(16));
    } else if (starts("--parallel-reps=")) {
      reps = std::stoi(arg.substr(16));
    } else {
      return false;
    }
    return true;
  };
  remaining.erase(std::remove_if(remaining.begin() + 1, remaining.end(),
                                 [&](char* a) { return consume(a); }),
                  remaining.end());
  if (parallel_mode) {
    return run_parallel_speedup(json_path, device_multiplier, reps);
  }
  int remaining_argc = static_cast<int>(remaining.size());
  benchmark::Initialize(&remaining_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(remaining_argc,
                                             remaining.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
