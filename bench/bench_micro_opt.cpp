// Micro-benchmarks (google-benchmark) for the optimization substrate:
// objective gains, greedy variants (sequential and on a thread pool),
// dominance filtering, Hungarian, LPT.
#include <benchmark/benchmark.h>

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

/// Large instance for the parallel-selection benchmark: dense topology so
/// the greedy argmax scans thousands of candidates per round.
model::Scenario make_big_scenario() {
  model::GenOptions opt;
  opt.device_multiplier = 12;
  opt.num_obstacles = 6;
  Rng rng(42);
  return model::make_paper_scenario(opt, rng);
}

struct BigFixture {
  model::Scenario scenario;
  pdcs::ExtractionResult extraction;

  BigFixture() : scenario(make_big_scenario()) {
    // Extraction itself on all cores — candidates are scheduling-invariant.
    // The global dominance filter stays off: the parallel benchmarks target
    // the argmax-bound regime, where greedy scans the raw candidate set.
    parallel::ThreadPool pool;
    pdcs::ExtractOptions opt;
    opt.global_filter = false;
    extraction = pdcs::extract_all(scenario, opt, &pool);
  }

  static const BigFixture& get() {
    static BigFixture f;
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

}  // namespace

BENCHMARK_MAIN();
