// Museum redeployment (Section 8.1): a gallery's exhibit sensors move when
// the exhibition is rearranged. Solve HIPO for the old and the new
// topologies, then compute charger transfer plans that minimize (a) the
// total switching overhead (Hungarian per type) and (b) the maximum
// per-charger overhead (binary search + Hall feasibility, then Hungarian).
//
//   ./museum_redeployment [--seed N]
#include <iostream>

#include "src/hipo.hpp"

namespace {

hipo::model::Scenario make_gallery(std::uint64_t seed, bool rearranged) {
  using namespace hipo;
  model::Scenario::Config cfg;
  cfg.charger_types = {{geom::kPi / 3.0, 1.5, 8.0},
                       {geom::kPi / 2.0, 1.0, 5.0}};
  cfg.device_types = {{geom::kPi}};
  cfg.pair_params = {{120.0, 48.0}, {100.0, 40.0}};
  cfg.charger_counts = {3, 3};
  cfg.region.lo = {0.0, 0.0};
  cfg.region.hi = {30.0, 20.0};
  // Two display walls.
  cfg.obstacles = {geom::make_rect({10.0, 5.0}, {11.0, 15.0}),
                   geom::make_rect({19.0, 5.0}, {20.0, 15.0})};
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    model::Device d;
    // Rearranged exhibition shifts the sensors to the other halves of the
    // three rooms.
    const double room = static_cast<double>(i % 3) * 9.0 + 1.5;
    const double x_off = rearranged ? 5.5 : 1.0;
    d.pos = {room + x_off + rng.uniform(0.0, 2.5),
             2.0 + rng.uniform(0.0, 16.0)};
    d.orientation = rng.angle();
    d.type = 0;
    d.p_th = 0.05;
    cfg.devices.push_back(d);
  }
  return model::Scenario(std::move(cfg));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipo;
  Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", 5));
  cli.finish();

  const auto before = make_gallery(seed, false);
  const auto after = make_gallery(seed + 1, true);

  const auto plan_before = core::solve(before);
  const auto plan_after = core::solve(after);
  std::cout << "Old exhibition utility: "
            << format_double(plan_before.utility, 4) << "\n";
  std::cout << "New exhibition utility: "
            << format_double(plan_after.utility, 4) << "\n\n";

  ext::SwitchCostModel cost;
  cost.w_move = 1.0;    // meters
  cost.w_rotate = 0.5;  // radians

  const auto min_total = ext::redeploy_min_total(
      plan_before.placement, plan_after.placement,
      before.num_charger_types(), cost);
  const auto min_max = ext::redeploy_min_max(
      plan_before.placement, plan_after.placement,
      before.num_charger_types(), cost);

  Table comparison({"objective", "total overhead", "max overhead"});
  comparison.row()
      .add("minimize total (Sec. 8.1.1)")
      .add(min_total.total_cost, 3)
      .add(min_total.max_cost, 3);
  comparison.row()
      .add("minimize max (Sec. 8.1.2)")
      .add(min_max.total_cost, 3)
      .add(min_max.max_cost, 3);
  comparison.print(std::cout);

  std::cout << "\nMin-max transfer plan:\n";
  Table plan({"charger", "from (x,y)", "to (x,y)", "cost"});
  // Not `"(" + ...`: GCC 12 at -O3 reports a false -Wrestrict overlap when
  // a literal is prepended to a temporary string.
  const auto xy = [](geom::Vec2 p) {
    std::string s = "(";
    s += format_double(p.x, 1) + ", " + format_double(p.y, 1) + ")";
    return s;
  };
  for (std::size_t i = 0; i < plan_before.placement.size(); ++i) {
    const auto& from = plan_before.placement[i];
    const auto& to = plan_after.placement[min_max.to_of[i]];
    plan.row()
        .add(std::to_string(i + 1))
        .add(xy(from.pos))
        .add(xy(to.pos))
        .add(cost.cost(from, to), 3);
  }
  plan.print(std::cout);
  return 0;
}
