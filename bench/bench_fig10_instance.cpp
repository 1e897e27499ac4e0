// Fig. 10: one simulation instance (4× charger budget = {4, 8, 12}) —
// prints the Tables 2–4 defaults, then each algorithm's placement and
// charging utility (the paper reports HIPO 0.8495 vs 0.10–0.69 for the
// baselines, with HIPO charging all devices).
#include "bench/harness.hpp"

#include "src/model/scenario_gen.hpp"

using namespace hipo;

namespace {

void print_parameter_tables(std::ostream& os) {
  Table t2({"charger type", "alpha_s(rad)", "d_min(m)", "d_max(m)", "count"});
  const auto cfg = model::paper_tables(model::GenOptions{});
  for (std::size_t q = 0; q < cfg.charger_types.size(); ++q) {
    t2.row()
        .add(std::to_string(q + 1))
        .add(cfg.charger_types[q].angle, 4)
        .add(cfg.charger_types[q].d_min, 1)
        .add(cfg.charger_types[q].d_max, 1)
        .add(cfg.charger_counts[q]);
  }
  os << "Table 2 — default charger parameters (base counts):\n";
  t2.print(os);

  Table t3({"device type", "alpha_o(rad)"});
  for (std::size_t t = 0; t < cfg.device_types.size(); ++t) {
    t3.row().add(std::to_string(t + 1)).add(cfg.device_types[t].angle, 4);
  }
  os << "\nTable 3 — default device parameters:\n";
  t3.print(os);

  Table t4({"charger", "device", "a", "b"});
  for (std::size_t q = 0; q < cfg.charger_types.size(); ++q) {
    for (std::size_t t = 0; t < cfg.device_types.size(); ++t) {
      const auto& pp = cfg.pair_params[q * cfg.device_types.size() + t];
      t4.row()
          .add(std::to_string(q + 1))
          .add(std::to_string(t + 1))
          .add(pp.a, 0)
          .add(pp.b, 0);
    }
  }
  os << "\nTable 4 — correlated power-model parameters:\n";
  t4.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool csv = cli.has("csv");
  const int seed = cli.get_or("seed", 2018);
  cli.finish();

  print_parameter_tables(std::cout);

  // Fig. 10 uses 4× the initial charger budget.
  model::GenOptions opt;
  opt.charger_multiplier = 4;
  Rng topo_rng(static_cast<std::uint64_t>(seed));
  const auto scenario = model::make_paper_scenario(opt, topo_rng);
  std::cout << "\nInstance: " << scenario.num_devices() << " devices, "
            << scenario.num_chargers() << " chargers (12/8/4 of types 1/2/3 "
            << "in the paper's convention), " << scenario.num_obstacles()
            << " obstacles\n\n";

  Table placements({"algorithm", "utility", "devices_charged",
                    "example strategy (x, y, deg)"});
  Table detail({"algorithm", "x", "y", "orientation_deg", "type"});

  for (const auto& alg : bench::all_algorithms()) {
    Rng rng(bench::hash_id("fig10") ^ static_cast<std::uint64_t>(seed));
    const auto placement = alg.run(scenario, rng);
    const double utility = scenario.placement_utility(placement);
    const auto per_dev = scenario.per_device_utility(placement);
    int charged = 0;
    for (double u : per_dev) charged += u > 0.0 ? 1 : 0;
    std::string example = "-";
    if (!placement.empty()) {
      // Appended, not `"(" + ...`: GCC 12 at -O3 reports a false -Wrestrict
      // overlap when a literal is prepended to a temporary string.
      const auto& s = placement[0];
      example = "(";
      example += format_double(s.pos.x, 1) + ", " +
                 format_double(s.pos.y, 1) + ", " +
                 format_double(s.orientation * 180.0 / geom::kPi, 0) + ")";
    }
    placements.row()
        .add(alg.name)
        .add(utility, 4)
        .add(std::to_string(charged) + "/" +
             std::to_string(scenario.num_devices()))
        .add(example);
    for (const auto& s : placement) {
      detail.row()
          .add(alg.name)
          .add(s.pos.x, 2)
          .add(s.pos.y, 2)
          .add(s.orientation * 180.0 / geom::kPi, 1)
          .add(s.type + 1);
    }
  }

  std::cout << "Fig. 10 — per-algorithm utility on this instance:\n";
  placements.print(std::cout);
  if (csv) {
    detail.write_csv_file("fig10_placements.csv");
    std::cout << "\nplacement detail written to fig10_placements.csv\n";
  }
  return 0;
}
