// hipo_shard — sharded PDCS extraction front end: partition the device
// tasks into spatial shards, run each shard's owned tasks with extract_all's
// task loop (optionally in forked worker processes, each shard's retained
// rows metered against a memory ceiling), merge the rows with extract_all's
// own device-order merge, and run the greedy selection on the merged pool.
// The merged pool — and therefore the placement — is bit-identical to a
// single-process `hipo_solve` run for any shard, process, or thread count.
//
//   hipo_shard --scenario field.hipo [--out placement.hipo]
//              [--demo paper|field] [--seed N]
//              [--shards N]         (spatial shards; 1 = degenerate grid)
//              [--procs N]          (forked worker processes; 0 = in-process)
//              [--threads N]        (worker pool: in-process shards,
//                                    greedy, --verify)
//              [--mem-ceiling-mb N] (per-shard ceiling on retained-row
//                                    bytes; over it the run fails; 0 = off)
//              [--greedy lazy|global|per-type]  (global = lazy)
//              [--verify]           (also run single-process extract_all +
//                                    greedy and require the pool and
//                                    placement to be bit-identical)
//              [--report]           (metrics report incl. peak RSS)
//              [--json FILE]        (run summary JSON: options, per-shard
//                                    stats, build provenance, peak RSS)
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

#include "src/hipo.hpp"

using namespace hipo;

namespace {

model::Scenario load_scenario(Cli& cli) {
  if (const auto demo = cli.get("demo")) {
    if (*demo == "field") return model::make_field_scenario();
    if (*demo == "paper") {
      Rng rng(static_cast<std::uint64_t>(cli.get_or("seed", 1)));
      return model::make_paper_scenario(model::GenOptions{}, rng);
    }
    throw ConfigError("--demo expects 'paper' or 'field'");
  }
  const auto path = cli.get("scenario");
  HIPO_REQUIRE(path.has_value(),
               "pass --scenario <file> or --demo paper|field");
  return model::read_scenario_file(*path);
}

bool same_candidates(const pdcs::ExtractionResult& a,
                     const pdcs::ExtractionResult& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
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

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool report = cli.has("report");
    const auto json_path = cli.get("json");
    if (report || json_path) obs::set_metrics_enabled(true);

    const auto scenario = load_scenario(cli);

    shard::RunnerOptions opt;
    const int shards = cli.get_or("shards", 1);
    HIPO_REQUIRE(shards >= 1, "--shards must be >= 1");
    opt.shards = static_cast<std::size_t>(shards);
    const int procs = cli.get_or("procs", 0);
    HIPO_REQUIRE(procs >= 0, "--procs must be >= 0 (0 = in-process)");
    opt.processes = static_cast<std::size_t>(procs);
    const int ceiling_mb = cli.get_or("mem-ceiling-mb", 0);
    HIPO_REQUIRE(ceiling_mb >= 0, "--mem-ceiling-mb must be >= 0");
    opt.mem_ceiling_bytes = static_cast<std::size_t>(ceiling_mb) << 20;

    const int threads = cli.get_or("threads", 0);
    HIPO_REQUIRE(threads >= 0, "--threads must be >= 0 (0 = hardware)");
    // Forking with live pool workers can deadlock the child, so with
    // --procs the pool starts only after extract_sharded has forked and
    // reaped its workers; greedy and --verify use it either way.
    const auto pool_threads = static_cast<std::size_t>(threads);
    std::optional<parallel::ThreadPool> pool;
    if (opt.processes == 0) opt.pool = &pool.emplace(pool_threads);

    const auto greedy_mode = opt::parse_greedy_mode(
        cli.get_or("greedy", std::string("lazy")));

    const bool verify = cli.has("verify");
    const auto out = cli.get("out");
    cli.finish();

    shard::RunnerStats stats;
    obs::Stopwatch extract_watch;
    const auto extraction = shard::extract_sharded(scenario, opt, &stats);
    const double extract_seconds = extract_watch.seconds();
    if (!pool) pool.emplace(pool_threads);

    obs::Stopwatch greedy_watch;
    const auto greedy =
        opt::select_strategies(scenario, extraction.candidates, greedy_mode,
                               opt::ObjectiveKind::kUtility, &*pool);
    const double greedy_seconds = greedy_watch.seconds();
    scenario.validate_placement(greedy.placement);

    std::cout << "scenario: " << scenario.num_devices() << " devices, "
              << scenario.num_chargers() << " charger budget, "
              << scenario.num_obstacles() << " obstacles\n";
    std::cout << "shards: " << stats.shards << " ("
              << (stats.processes > 0
                      ? std::to_string(stats.processes) + " worker process(es)"
                      : std::string("in-process"))
              << "), " << stats.rows << " pooled rows\n";
    std::cout << "extraction: " << format_double(extract_seconds * 1e3, 1)
              << " ms (merge " << format_double(stats.merge_seconds * 1e3, 1)
              << " ms), " << extraction.candidates.size()
              << " candidates after global filter\n";
    std::cout << "peak shard rows: " << stats.peak_shard_bytes
              << " bytes; merged pools: " << stats.pool_bytes << " bytes";
    if (opt.mem_ceiling_bytes != 0) {
      std::cout << " (ceiling " << opt.mem_ceiling_bytes << ")";
    }
    std::cout << "\n";
    std::cout << "placement: " << greedy.placement.size()
              << " chargers, utility "
              << format_double(greedy.exact_utility, 4) << " (greedy "
              << format_double(greedy_seconds * 1e3, 1) << " ms)\n";
    if (const auto rss = obs::peak_rss_bytes(); rss != 0) {
      std::cout << "peak RSS: " << (rss >> 20) << " MiB\n";
    }

    if (verify) {
      const auto reference = pdcs::extract_all(scenario, opt.extract, &*pool);
      HIPO_ASSERT_MSG(same_candidates(reference, extraction),
                      "--verify: sharded candidate pool diverged from "
                      "single-process extract_all");
      const auto ref_greedy =
          opt::select_strategies(scenario, reference.candidates, greedy_mode,
                                 opt::ObjectiveKind::kUtility, &*pool);
      HIPO_ASSERT_MSG(
          ref_greedy.placement.size() == greedy.placement.size() &&
              std::memcmp(ref_greedy.placement.data(), greedy.placement.data(),
                          greedy.placement.size() * sizeof(model::Strategy)) ==
                  0,
          "--verify: sharded placement diverged from the single-process "
          "placement");
      std::cout << "verified: pool and placement bit-identical to "
                   "single-process extraction\n";
    }

    if (out) {
      model::write_placement_file(*out, greedy.placement);
      std::cout << "placement written to " << *out << "\n";
    }

    if (report) {
      std::cout << "\n";
      obs::print_report(obs::metrics_snapshot(), std::cout);
    }
    if (json_path) {
      std::ofstream os(*json_path);
      if (!os) throw ConfigError("cannot open JSON file '" + *json_path + "'");
      obs::Json shard_seconds = obs::Json::array();
      for (const double t : stats.shard_seconds) {
        shard_seconds.push(obs::Json::number(t));
      }
      obs::Json summary = obs::Json::object();
      summary.set("tool", obs::Json::string("hipo_shard"))
          .set("build", obs::build_info_object())
          .set("shards", obs::Json::number(stats.shards))
          .set("processes", obs::Json::number(stats.processes))
          .set("mem_ceiling_bytes",
               obs::Json::number(opt.mem_ceiling_bytes))
          .set("rows", obs::Json::number(stats.rows))
          .set("peak_shard_bytes",
               obs::Json::number(stats.peak_shard_bytes))
          .set("pool_bytes", obs::Json::number(stats.pool_bytes))
          .set("extract_seconds", obs::Json::number(extract_seconds))
          .set("merge_seconds", obs::Json::number(stats.merge_seconds))
          .set("greedy_seconds", obs::Json::number(greedy_seconds))
          .set("candidates",
               obs::Json::number(extraction.candidates.size()))
          .set("utility", obs::Json::number(greedy.exact_utility))
          .set("verified", obs::Json::boolean(verify))
          .set("peak_rss_bytes", obs::Json::number(obs::peak_rss_bytes()))
          .set("shard_seconds", std::move(shard_seconds));
      os << summary.dump() << '\n';
      std::cout << "run summary written to " << *json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hipo_shard: " << e.what() << "\n";
    return 1;
  }
}
