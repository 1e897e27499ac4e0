// Scalability: end-to-end solve time and its growth rate as devices and
// chargers scale — the empirical face of Theorem 4.2's
// O(Ns·No⁴·ε⁻²·Nh²·c²) bound (the neighbor-set implementation is far
// below the worst case because pair enumeration is range-limited).
//
// `--json[=PATH]` switches to the sharded scaling-tier run: constant-density
// scenarios (region_scale s with device_multiplier 4·s², so per-task cost is
// size-independent) at 1k / 10k / 100k devices, extracted through the
// hipo::shard runner — a measured 1-shard baseline vs a measured multi-
// process run, plus the LPT-simulated distributed speedup from the same
// per-task timings (the Fig. 12 substitution for machines this host does
// not have). Each tier byte-compares the merged multi-shard pool against
// the 1-shard pool and records peak RSS against the configured per-shard
// memory ceiling. Writes BENCH_scaling.json.
#include "bench/harness.hpp"

#include <cmath>
#include <thread>
#include <cstring>
#include <fstream>

#include "src/core/solver.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/obs/obs.hpp"
#include "src/pdcs/extract.hpp"
#include "src/shard/runner.hpp"
#include "src/util/stats.hpp"
#include "src/obs/stopwatch.hpp"

using namespace hipo;

namespace {

bool pools_identical(const pdcs::ExtractionResult& a,
                     const pdcs::ExtractionResult& b) {
  if (a.raw_candidates != b.raw_candidates ||
      a.candidates.size() != b.candidates.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& x = a.candidates[i];
    const auto& y = b.candidates[i];
    if (std::memcmp(&x.strategy, &y.strategy, sizeof(model::Strategy)) != 0 ||
        x.covered != y.covered || x.powers != y.powers) {
      return false;
    }
  }
  return true;
}

struct TierRecord {
  std::size_t region_scale = 0;
  std::size_t devices = 0;
  std::size_t obstacles = 0;
  std::size_t rows = 0;
  std::size_t peak_shard_bytes = 0;
  double gen_seconds = 0.0;
  double single_seconds = 0.0;
  double multi_seconds = 0.0;
  double merge_seconds = 0.0;
  double lpt_simulated_speedup = 0.0;
  bool pool_identical = false;
  std::uint64_t peak_rss_bytes = 0;
};

int run_tiers(const std::string& out_path, int max_devices, int shards,
              int procs, int ceiling_mb) {
  // Constant density: device_multiplier 4·s² at region_scale s keeps the
  // paper-default 40 devices per 40 m × 40 m patch.
  std::vector<int> scales;
  for (int s : {5, 16, 50, 158}) {
    if (10 * 4 * s * s <= max_devices) scales.push_back(s);
  }
  HIPO_REQUIRE(!scales.empty(), "--max-devices admits no tier (min 1000)");

  std::vector<TierRecord> tiers;
  Table table({"devices", "obstacles", "rows", "1-shard s",
               std::to_string(shards) + "sh/" + std::to_string(procs) + "p s",
               "measured x", "LPT-sim x", "peak RSS MiB"});

  for (const int s : scales) {
    TierRecord rec;
    rec.region_scale = static_cast<std::size_t>(s);
    model::GenOptions gen;
    gen.device_multiplier = 4 * s * s;
    gen.region_scale = s;
    Rng rng(seed_combine(bench::hash_id("scaling-tier"),
                         static_cast<std::uint64_t>(s), 0));
    obs::Stopwatch gen_watch;
    const auto scenario = model::make_paper_scenario(gen, rng);
    rec.gen_seconds = gen_watch.seconds();
    rec.devices = scenario.num_devices();
    rec.obstacles = scenario.num_obstacles();

    // The tiers measure extraction scale, not the global dominance filter:
    // candidate streams are merged unfiltered so the byte comparison below
    // covers every raw row of the pool.
    shard::RunnerOptions base;
    base.shards = 1;
    base.extract.global_filter = false;
    base.mem_ceiling_bytes = static_cast<std::size_t>(ceiling_mb) << 20;
    obs::Stopwatch single_watch;
    const auto single = shard::extract_sharded(scenario, base);
    rec.single_seconds = single_watch.seconds();

    shard::RunnerOptions multi = base;
    multi.shards = static_cast<std::size_t>(shards);
    multi.processes = static_cast<std::size_t>(procs);
    shard::RunnerStats stats;
    obs::Stopwatch multi_watch;
    const auto merged = shard::extract_sharded(scenario, multi, &stats);
    rec.multi_seconds = multi_watch.seconds();
    rec.rows = stats.rows;
    rec.peak_shard_bytes = stats.peak_shard_bytes;
    rec.merge_seconds = stats.merge_seconds;
    rec.pool_identical = pools_identical(single, merged);

    double total = 0.0;
    for (double t : single.task_seconds) total += t;
    const double lpt = pdcs::simulated_distributed_seconds(
        single.task_seconds, static_cast<std::size_t>(procs));
    rec.lpt_simulated_speedup = lpt > 0.0 ? total / lpt : 0.0;
    rec.peak_rss_bytes = obs::peak_rss_bytes();

    table.row()
        .add(rec.devices)
        .add(rec.obstacles)
        .add(rec.rows)
        .add(rec.single_seconds, 2)
        .add(rec.multi_seconds, 2)
        .add(rec.single_seconds / rec.multi_seconds, 2)
        .add(rec.lpt_simulated_speedup, 2)
        .add(static_cast<double>(rec.peak_rss_bytes) / (1 << 20), 0);
    tiers.push_back(rec);
    std::cout << "tier " << rec.devices << " devices done: 1-shard "
              << format_double(rec.single_seconds, 2) << " s, " << shards
              << "-shard/" << procs << "-proc "
              << format_double(rec.multi_seconds, 2) << " s, pool "
              << (rec.pool_identical ? "identical" : "DIVERGED") << "\n";
    HIPO_REQUIRE(rec.pool_identical,
                 "merged multi-shard pool diverged from the 1-shard pool");
  }

  std::cout << "\nSharded scaling tiers (constant density, "
            << shards << " shards, " << procs << " worker processes, "
            << ceiling_mb << " MiB per-shard ceiling):\n";
  table.print(std::cout);
  std::cout << "(measured speedup reflects this host's "
            << std::thread::hardware_concurrency()
            << " core(s); the LPT-simulated column is the Fig. 12-style "
               "makespan over the same measured per-task times)\n";

  std::ofstream json(out_path);
  if (!json.good()) {
    std::cerr << "cannot open output file " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"scaling\",\n  \"build\": "
       << obs::build_info_json()
       << ",\n  \"cores\": " << std::thread::hardware_concurrency()
       << ",\n  \"shards\": " << shards << ",\n  \"processes\": " << procs
       << ",\n  \"mem_ceiling_mb\": " << ceiling_mb
       << ",\n  \"mem_ceiling_bytes\": "
       << (static_cast<std::size_t>(ceiling_mb) << 20)
       << ",\n  \"global_filter\": false,\n  \"tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto& r = tiers[i];
    json << "    {\"devices\": " << r.devices
         << ", \"region_scale\": " << r.region_scale
         << ", \"obstacles\": " << r.obstacles << ", \"rows\": " << r.rows
         << ", \"gen_seconds\": " << obs::json_double(r.gen_seconds)
         << ", \"single_shard_seconds\": "
         << obs::json_double(r.single_seconds)
         << ", \"multi_shard_seconds\": " << obs::json_double(r.multi_seconds)
         << ", \"merge_seconds\": " << obs::json_double(r.merge_seconds)
         << ", \"measured_speedup\": "
         << obs::json_double(r.single_seconds / r.multi_seconds)
         << ", \"lpt_simulated_speedup\": "
         << obs::json_double(r.lpt_simulated_speedup)
         << ", \"peak_shard_bytes\": " << r.peak_shard_bytes
         << ", \"pool_identical\": "
         << (r.pool_identical ? "true" : "false")
         << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << "}"
         << (i + 1 < tiers.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_bytes\": " << obs::peak_rss_bytes() << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("json")) {
    // Cli encodes a bare `--json` as the value "1": fall back to the
    // default artifact name in that case (`--json[=PATH]`).
    std::string out = cli.get_or("json", std::string());
    if (out == "1" || out.empty()) out = "BENCH_scaling.json";
    const int max_devices = cli.get_or("max-devices", 100000);
    const int shards = cli.get_or("shards", 4);
    const int procs = cli.get_or("procs", 4);
    const int ceiling_mb = cli.get_or("mem-ceiling-mb", 2048);
    cli.finish();
    return run_tiers(out, max_devices, shards, procs, ceiling_mb);
  }
  const int reps = std::max(1, bench::resolve_reps(cli) / 2);
  const bool csv = cli.has("csv");
  const int max_mult = cli.get_or("max-mult", 12);
  cli.finish();

  Table table({"devices", "chargers", "candidates", "extract ms",
               "greedy ms", "total ms", "growth vs prev"});

  double prev_ms = 0.0;
  for (int mult = 1; mult <= max_mult; mult *= 2) {
    RunningStats cands, ex_ms, gr_ms, total_ms;
    std::size_t devices = 0, chargers = 0;
    for (int rep = 0; rep < reps; ++rep) {
      model::GenOptions gen;
      gen.device_multiplier = mult;
      gen.charger_multiplier = std::max(1, mult / 2);
      Rng rng(seed_combine(bench::hash_id("scaling"),
                           static_cast<std::uint64_t>(mult),
                           static_cast<std::uint64_t>(rep)));
      const auto scenario = model::make_paper_scenario(gen, rng);
      devices = scenario.num_devices();
      chargers = scenario.num_chargers();

      obs::Stopwatch t;
      const auto extraction = pdcs::extract_all(scenario);
      const double e = t.millis();
      t.reset();
      const auto greedy = opt::select_strategies(
          scenario, extraction.candidates, opt::GreedyMode::kLazyGlobal);
      const double g = t.millis();
      (void)greedy;
      cands.add(static_cast<double>(extraction.candidates.size()));
      ex_ms.add(e);
      gr_ms.add(g);
      total_ms.add(e + g);
    }
    table.row()
        .add(devices)
        .add(chargers)
        .add(cands.mean(), 1)
        .add(ex_ms.mean(), 1)
        .add(gr_ms.mean(), 2)
        .add(total_ms.mean(), 1);
    if (prev_ms > 0.0) {
      table.add(total_ms.mean() / prev_ms, 2);
    } else {
      table.add(std::string("-"));
    }
    prev_ms = total_ms.mean();
  }

  std::cout << "Scalability (devices and chargers doubling together):\n";
  table.print(std::cout);
  std::cout << "\n(growth per doubling ~4-6x: dominated by the quadratic "
               "pair enumeration within neighbor sets, far below the "
               "worst-case No^4)\n";
  if (csv) table.write_csv_file("scaling.csv");
  return 0;
}
