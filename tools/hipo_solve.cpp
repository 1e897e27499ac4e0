// hipo_solve — command-line front end of the library: read a scenario file,
// run the HIPO pipeline (or a baseline), write the placement, a report, and
// an optional SVG rendering.
//
//   hipo_solve --scenario field.hipo [--out placement.hipo] [--svg out.svg]
//              [--algorithm hipo|gppdcs|gpad|gpar|rpad|rpar]
//              [--grid square|triangle] [--local-search] [--seed N]
//              [--greedy lazy|global|per-type]  (selection mode: lazy is
//                                      the default; global is its eager
//                                      reference, same placement; per-type
//                                      is Algorithm 3's literal order)
//              [--threads N]          (0 = hardware concurrency, the default;
//                                      output is identical for any N)
//              [--demo paper|field]   (generate a built-in scenario instead)
//              [--deltas FILE]        (JSONL delta script, schema in
//                                      docs/FORMATS.md: replay device /
//                                      obstacle churn through the warm
//                                      incremental solver after the cold
//                                      solve; hipo algorithm only)
//              [--deltas-verify]      (after every delta, cold-solve the
//                                      mutated scenario and require the warm
//                                      placement to be bit-identical — the
//                                      CI incremental-vs-cold check)
//              [--trace FILE]         (Chrome/Perfetto trace-event JSON)
//              [--metrics-json FILE]  (metrics + build provenance JSON)
//              [--report]             (per-phase wall time / counter tables)
//              [--version]            (build provenance JSON, then exit)
//
// Observability never changes results: placements are bit-identical with
// --trace/--metrics-json/--report on or off, for any --threads value.
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <utility>

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
  HIPO_REQUIRE(path.has_value(), "pass --scenario <file> or --demo paper|field");
  return model::read_scenario_file(*path);
}

/// The hipo-pipeline options shared by `core::solve` and the delta flow.
core::SolveOptions hipo_options(Cli& cli, parallel::ThreadPool& pool) {
  const std::string greedy_name = cli.get_or("greedy", std::string("lazy"));
  core::SolveOptions opts;
  opts.local_search = cli.has("local-search");
  opts.pool = &pool;
  opts.greedy = greedy_name == "lazy"     ? opt::GreedyMode::kLazyGlobal
                : greedy_name == "global" ? opt::GreedyMode::kGlobal
                                          : opt::GreedyMode::kPerType;
  return opts;
}

const char* delta_kind_name(opt::DeltaOp::Kind kind) {
  switch (kind) {
    case opt::DeltaOp::Kind::kAddDevice: return "add_device";
    case opt::DeltaOp::Kind::kRemoveDevice: return "remove_device";
    case opt::DeltaOp::Kind::kMoveDevice: return "move_device";
    case opt::DeltaOp::Kind::kAddObstacle: return "add_obstacle";
    case opt::DeltaOp::Kind::kRemoveObstacle: return "remove_obstacle";
  }
  return "?";
}

/// Replay a JSONL delta script through core::DeltaSession: cold solve, then
/// one warm incremental re-solve + redeployment plan per op. Returns the
/// final mutated scenario and its placement for the regular reporting path.
std::pair<model::Scenario, model::Placement> run_deltas(
    const model::Scenario& scenario, const std::string& path, Cli& cli) {
  HIPO_REQUIRE(cli.get_or("algorithm", std::string("hipo")) == "hipo",
               "--deltas is only supported with --algorithm hipo");
  const int threads = cli.get_or("threads", 0);
  HIPO_REQUIRE(threads >= 0, "--threads must be >= 0 (0 = hardware)");
  parallel::ThreadPool pool(static_cast<std::size_t>(threads));
  const core::SolveOptions opts = hipo_options(cli, pool);
  const bool verify = cli.has("deltas-verify");

  const auto ops = opt::read_delta_script_file(path);
  core::DeltaSession session(scenario.to_config(), core::replan_options(opts));
  std::cout << "cold solve: " << session.placement().size()
            << " chargers, utility "
            << format_double(session.solver().result().exact_utility, 4)
            << "; replaying " << ops.size() << " delta(s) from " << path
            << "\n";

  Table deltas({"#", "op", "tasks", "rows -/+/=", "utility", "moved",
                "recalled", "deployed", "switch cost"});
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const auto r = session.apply(ops[k]);
    deltas.row()
        .add(std::to_string(k + 1))
        .add(delta_kind_name(ops[k].kind))
        .add(std::to_string(r.stats.tasks_regenerated) + "/" +
             std::to_string(r.stats.tasks_total) +
             (r.stats.full_rebuild ? " (rebuild)" : ""))
        .add(std::to_string(r.stats.rows_erased) + "/" +
             std::to_string(r.stats.rows_inserted) + "/" +
             std::to_string(r.stats.rows_kept))
        .add(r.utility, 4)
        .add(std::to_string(r.redeploy.transferred))
        .add(std::to_string(r.redeploy.recalled))
        .add(std::to_string(r.redeploy.deployed))
        .add(r.redeploy.total_cost, 3);
    if (verify) {
      const model::Scenario cold{
          model::Scenario::Config(session.solver().config())};
      const auto reference = core::solve(cold, opts).placement;
      HIPO_ASSERT_MSG(
          reference.size() == r.placement.size() &&
              std::memcmp(reference.data(), r.placement.data(),
                          reference.size() * sizeof(model::Strategy)) == 0,
          "--deltas-verify: warm placement diverged from the cold solve "
          "after delta " +
              std::to_string(k + 1) + " (" + delta_kind_name(ops[k].kind) +
              ")");
    }
  }
  deltas.print(std::cout);
  if (verify) {
    std::cout << "deltas verified: all " << ops.size()
              << " warm placement(s) bit-identical to cold solves\n";
  }
  return {model::Scenario(session.solver().config()),
          session.placement()};
}

model::Placement run_algorithm(const model::Scenario& scenario, Cli& cli) {
  const std::string name = cli.get_or("algorithm", std::string("hipo"));
  // Declared for every algorithm (so `--threads` is always accepted); only
  // the hipo pipeline is parallel, and its output is thread-count-invariant.
  const int threads = cli.get_or("threads", 0);
  HIPO_REQUIRE(threads >= 0, "--threads must be >= 0 (0 = hardware)");
  const std::string grid_name = cli.get_or("grid", std::string("triangle"));
  const auto grid = grid_name == "square" ? baselines::GridKind::kSquare
                                          : baselines::GridKind::kTriangle;
  HIPO_REQUIRE(grid_name == "square" || grid_name == "triangle",
               "--grid expects 'square' or 'triangle'");
  Rng rng(static_cast<std::uint64_t>(cli.get_or("seed", 1)) ^
          0x9e3779b97f4a7c15ULL);

  const std::string greedy_name = cli.get_or("greedy", std::string("lazy"));
  HIPO_REQUIRE(greedy_name == "lazy" || greedy_name == "global" ||
                   greedy_name == "per-type",
               "--greedy expects 'lazy', 'global', or 'per-type'");

  if (name == "hipo") {
    parallel::ThreadPool pool(static_cast<std::size_t>(threads));
    const core::SolveOptions opts = hipo_options(cli, pool);
    return core::solve(scenario, opts).placement;
  }
  if (name == "gppdcs") return baselines::place_gppdcs(scenario, grid, rng);
  if (name == "gpad") return baselines::place_gpad(scenario, grid, rng);
  if (name == "gpar") return baselines::place_gpar(scenario, grid, rng);
  if (name == "rpad") return baselines::place_rpad(scenario, rng);
  if (name == "rpar") return baselines::place_rpar(scenario, rng);
  throw ConfigError("unknown --algorithm '" + name + "'");
}

/// Final-placement quality distribution, observed once per run.
void observe_placement(const model::Scenario& scenario,
                       const model::Placement& placement) {
  if (!obs::metrics_enabled()) return;
  static constexpr double kUtilityBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                              0.6, 0.7, 0.8, 0.9, 1.0};
  auto& histogram =
      obs::histogram("placement.device_utility", kUtilityBounds);
  for (const double u : scenario.per_device_utility(placement)) {
    histogram.observe(u);
  }
}

/// Reject flag combinations where one flag would be silently ignored: a
/// baseline run given `--greedy` is measuring something other than what it
/// says, and `--deltas-verify` without `--deltas` verifies nothing.
void check_flag_interactions(Cli& cli) {
  const std::string algorithm = cli.get_or("algorithm", std::string("hipo"));
  if (cli.has("deltas-verify")) {
    HIPO_REQUIRE(cli.get("deltas").has_value(),
                 "--deltas-verify requires --deltas FILE (there are no "
                 "deltas to verify)");
  }
  if (algorithm != "hipo") {
    for (const char* flag : {"greedy", "local-search"}) {
      HIPO_REQUIRE(!cli.has(flag),
                   std::string("--") + flag +
                       " only applies to --algorithm hipo (the baselines "
                       "would silently ignore it)");
    }
  }
}

void write_file_or_throw(const std::string& path, const std::string& what,
                         const std::function<void(std::ostream&)>& emit) {
  std::ofstream os(path);
  if (!os) throw ConfigError("cannot open " + what + " file '" + path + "'");
  emit(os);
  std::cout << what << " written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    if (cli.has("version")) {
      std::cout << obs::build_info_json() << "\n";
      return 0;
    }
    const auto trace_path = cli.get("trace");
    const auto metrics_path = cli.get("metrics-json");
    const bool report = cli.has("report");
    // Enable before any pool/solver work so setup is observed too.
    if (trace_path) obs::set_trace_enabled(true);
    if (metrics_path || report) obs::set_metrics_enabled(true);

    check_flag_interactions(cli);
    auto scenario = load_scenario(cli);
    model::Placement placement;
    if (const auto deltas = cli.get("deltas")) {
      // The delta flow mutates the scenario; report against the final state.
      auto replayed = run_deltas(scenario, *deltas, cli);
      scenario = std::move(replayed.first);
      placement = std::move(replayed.second);
    } else {
      placement = run_algorithm(scenario, cli);
    }
    const auto out = cli.get("out");
    const auto svg = cli.get("svg");
    const bool diagnose = cli.has("diagnose");
    cli.finish();

    scenario.validate_placement(placement);
    observe_placement(scenario, placement);
    std::cout << "scenario: " << scenario.num_devices() << " devices, "
              << scenario.num_chargers() << " charger budget, "
              << scenario.num_obstacles() << " obstacles\n";
    const auto powers = scenario.exact_powers(placement);
    std::cout << "placement: " << placement.size() << " chargers, utility "
              << format_double(scenario.placement_utility_from(powers), 4)
              << "\n";

    Table per_device({"device", "power", "utility"});
    const auto utilities = scenario.per_device_utility_from(powers);
    for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
      per_device.row()
          .add(std::to_string(j + 1))
          .add(powers[j], 4)
          .add(utilities[j], 3);
    }
    per_device.print(std::cout);

    if (diagnose) {
      const auto report = ext::analyze_coverage(scenario);
      std::cout << "\ncoverage diagnosis: " << report.uncoverable
                << " geometrically uncoverable device(s); utility upper "
                << "bound for any placement: "
                << format_double(report.utility_upper_bound, 4) << "\n";
      for (std::size_t j = 0; j < report.devices.size(); ++j) {
        if (!report.devices[j].coverable) {
          std::cout << "  device " << (j + 1)
                    << ": no feasible charger position of any type can "
                    << "reach it (receiving sector blocked or out of "
                    << "range)\n";
        }
      }
    }

    if (out) {
      model::write_placement_file(*out, placement);
      std::cout << "placement written to " << *out << "\n";
    }
    if (svg) {
      viz::SvgOptions svg_opts;
      // Render ~800 px across regardless of scenario units.
      const auto extent = scenario.region().extent();
      svg_opts.scale = 760.0 / std::max(extent.x, extent.y);
      viz::write_svg_file(*svg, scenario, placement, svg_opts);
      std::cout << "SVG written to " << *svg << "\n";
    }

    if (report || metrics_path) {
      const auto snapshot = obs::metrics_snapshot();
      if (report) {
        std::cout << "\n";
        obs::print_report(snapshot, std::cout);
      }
      if (metrics_path) {
        write_file_or_throw(*metrics_path, "metrics JSON",
                            [&](std::ostream& os) {
                              obs::write_metrics_json(snapshot, os);
                            });
      }
    }
    if (trace_path) {
      write_file_or_throw(*trace_path, "trace", [](std::ostream& os) {
        obs::write_trace_json(os);
      });
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hipo_solve: " << e.what() << "\n";
    return 1;
  }
}
