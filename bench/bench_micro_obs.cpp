// Micro-benchmarks (google-benchmark) for the observability layer itself:
// counter/span cost with metrics and tracing disabled (the cost every
// instrumented hot-path site pays in a production run) and enabled, one
// request-log record, and one metrics document.
//
// `--json[=PATH]` switches to a self-timed overhead run: the extract+greedy
// pipeline executes with observability off, with metrics on, with
// metrics+tracing on, with request logging on (to /dev/null, one canonical
// record per pipeline pass — the serve request-path shape), and with
// log+metrics; results must be bit-identical and the measured overheads
// are emitted as machine-readable JSON (BENCH_obs.json) with build
// provenance and the run's own metrics embedded. With `--reps>=3` the
// logging configurations are asserted to stay within the ≤2% overhead
// envelope (single-rep runs are too noisy to gate on). `--mult=N` scales
// the scenario, `--reps=N` sets repetitions per configuration (best-of).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/model/scenario_gen.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace hipo;

void BM_CounterDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  auto& c = obs::counter("bench.counter_disabled");
  for (auto _ : state) {
    c.add();
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  auto& c = obs::counter("bench.counter_enabled");
  for (auto _ : state) {
    c.add();
  }
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_CounterEnabled);

void BM_HistogramEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  constexpr double kBounds[] = {0.1, 0.2, 0.5, 1.0};
  auto& h = obs::histogram("bench.histogram", kBounds);
  double x = 0.0;
  for (auto _ : state) {
    h.observe(x);
    x += 0.001;
    if (x > 1.2) x = 0.0;
  }
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_HistogramEnabled);

void BM_SpanDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    obs::Span span("bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_LogWrite(benchmark::State& state) {
  // The serve request-path logging cost: build one canonical record and
  // enqueue it on the drain ring (sink is /dev/null, so the drain thread
  // never back-pressures the ring).
  obs::log::Logger logger("/dev/null");
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::Json rec = obs::Json::object();
    rec.set("event", obs::Json::string("request"))
        .set("request_id", obs::Json::string("r1"))
        .set("type", obs::Json::string("solve"))
        .set("ok", obs::Json::boolean(true))
        .set("seconds", obs::Json::number(0.001))
        .set("bytes_in", obs::Json::number(++i));
    obs::log::stamp(rec, obs::log::Level::kInfo);
    benchmark::DoNotOptimize(
        logger.write_line(obs::log::Level::kInfo, rec.dump()));
  }
  logger.flush();
}
BENCHMARK(BM_LogWrite);

void BM_SpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  std::size_t i = 0;
  for (auto _ : state) {
    obs::Span span("bench.span");
    benchmark::DoNotOptimize(&span);
    // Keep the event buffer bounded; the periodic clear amortizes to noise.
    if ((++i & 0xffff) == 0) obs::reset_trace();
  }
  obs::set_trace_enabled(false);
  obs::reset_trace();
}
BENCHMARK(BM_SpanEnabled);

/// One full sequential extract+greedy pass; returns exact utility.
double run_pipeline(const model::Scenario& scenario) {
  pdcs::ExtractOptions opt;
  const auto extraction = pdcs::extract_all(scenario, opt, nullptr);
  const auto greedy = opt::select_strategies(
      scenario, extraction.candidates, opt::GreedyMode::kLazyGlobal,
      opt::ObjectiveKind::kUtility, nullptr);
  return greedy.exact_utility;
}

void BM_MetricsJson(benchmark::State& state) {
  // One metrics document (the `metrics` scrape and --metrics-json body)
  // over the registry an extract+greedy pass leaves behind.
  obs::set_metrics_enabled(true);
  Rng rng(42);
  run_pipeline(model::make_paper_scenario(model::GenOptions{}, rng));
  obs::set_metrics_enabled(false);
  const auto snapshot = obs::metrics_snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::metrics_json(snapshot).dump());
  }
}
BENCHMARK(BM_MetricsJson);

struct Config {
  const char* name;
  bool metrics;
  bool trace;
  bool log;
};

/// Self-timed overhead run: pipeline wall time per observability
/// configuration, best-of-`reps`, written as BENCH_obs.json.
int run_overhead(const std::string& out_path, int mult, int reps) {
  model::GenOptions gen;
  gen.device_multiplier = mult;
  gen.num_obstacles = 6;
  Rng rng(42);
  const auto scenario = model::make_paper_scenario(gen, rng);
  std::cout << "obs overhead: " << scenario.num_devices() << " devices, "
            << reps << " reps per configuration\n";

  constexpr Config kConfigs[] = {
      {"off", false, false, false},
      {"metrics", true, false, false},
      {"metrics_trace", true, true, false},
      {"log", false, false, true},
      {"log_metrics", true, false, true},
  };
  constexpr std::size_t kNumConfigs = std::size(kConfigs);
  double seconds[kNumConfigs] = {};
  double utility[kNumConfigs] = {};
  obs::log::Logger logger("/dev/null");
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    obs::set_metrics_enabled(kConfigs[c].metrics);
    obs::set_trace_enabled(kConfigs[c].trace);
    for (int rep = 0; rep < reps; ++rep) {
      obs::reset_trace();
      obs::Stopwatch timer;
      utility[c] = run_pipeline(scenario);
      if (kConfigs[c].log) {
        // The serve request path emits exactly one record per request;
        // emit the same shape here so "log" measures that cost.
        obs::Json rec = obs::Json::object();
        rec.set("event", obs::Json::string("request"))
            .set("request_id",
                 obs::Json::string(std::to_string(rep).insert(0, 1, 'r')))
            .set("type", obs::Json::string("solve"))
            .set("admission", obs::Json::string("admitted"))
            .set("ok", obs::Json::boolean(true))
            .set("seconds", obs::Json::number(timer.seconds()))
            .set("utility", obs::Json::number(utility[c]));
        obs::log::stamp(rec, obs::log::Level::kInfo);
        logger.write_line(obs::log::Level::kInfo, rec.dump());
      }
      const double elapsed = timer.seconds();
      if (rep == 0 || elapsed < seconds[c]) seconds[c] = elapsed;
    }
  }
  const auto snapshot = obs::metrics_snapshot();
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  obs::reset_trace();
  logger.flush();

  bool identical = true;
  for (std::size_t c = 1; c < kNumConfigs; ++c) {
    identical = identical && utility[c] == utility[0];
  }
  if (!identical) {
    std::cerr << "ERROR: utility differs across observability configs\n";
    return 1;
  }
  const auto pct = [&](std::size_t c) {
    return seconds[0] > 0.0 ? 100.0 * (seconds[c] / seconds[0] - 1.0) : 0.0;
  };
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    std::printf("  %-14s %8.2f ms%s\n", kConfigs[c].name, seconds[c] * 1e3,
                c == 0 ? "" : ("  (" + std::to_string(pct(c)) + "%)").c_str());
  }
  // Gate the logging envelope only on best-of-3+ runs: a single rep's
  // wall time swings more than the envelope itself on shared CI machines.
  if (reps >= 3) {
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      if (!kConfigs[c].log) continue;
      if (pct(c) > 2.0) {
        std::cerr << "ERROR: config " << kConfigs[c].name << " overhead "
                  << pct(c) << "% exceeds the 2% envelope\n";
        return 1;
      }
    }
  }

  std::ofstream json(out_path);
  if (!json.good()) {
    std::cerr << "cannot open output file " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_obs\",\n  \"build\": "
       << obs::build_info_json() << ",\n  \"devices\": "
       << scenario.num_devices() << ",\n  \"reps\": " << reps
       << ",\n  \"configs\": [\n";
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    json << "    {\"name\": \"" << kConfigs[c].name
         << "\", \"seconds\": " << seconds[c]
         << ", \"overhead_pct\": " << pct(c) << "}"
         << (c + 1 < kNumConfigs ? "," : "") << "\n";
  }
  json << "  ],\n  \"utilities_identical\": true,\n  \"peak_rss_bytes\": "
       << obs::peak_rss_bytes() << ",\n  \"metrics\": "
       << obs::metrics_json(snapshot).dump() << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

// Custom main: plain google-benchmark unless --json is passed, in which
// case the self-timed overhead run executes instead.
int main(int argc, char** argv) {
  std::string json_path;
  int mult = 4;
  int reps = 3;
  std::vector<char*> gbench_args{argv, argv + 1};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto starts = [&](const char* p) { return arg.rfind(p, 0) == 0; };
    if (arg == "--json") {
      json_path = "BENCH_obs.json";
    } else if (starts("--json=")) {
      json_path = arg.substr(std::string("--json=").size());
    } else if (starts("--mult=")) {
      mult = std::stoi(arg.substr(std::string("--mult=").size()));
    } else if (starts("--reps=")) {
      reps = std::stoi(arg.substr(std::string("--reps=").size()));
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_overhead(json_path, mult, reps);
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
