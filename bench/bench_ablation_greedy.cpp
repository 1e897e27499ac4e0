// Ablation: the greedy's two selection orders on the same extracted
// candidate sets — Algorithm 3 (per-type) and the global matroid greedy,
// both with Minoux's lazy evaluation — plus the global greedy followed by
// the swap local search. Reports utility and selection wall time.
#include "bench/harness.hpp"

#include "src/model/scenario_gen.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/local_search.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/stats.hpp"
#include "src/obs/stopwatch.hpp"

using namespace hipo;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = bench::resolve_reps(cli);
  const bool csv = cli.has("csv");
  cli.finish();

  struct Mode {
    std::string name;
    opt::GreedyMode mode;
  };
  const std::vector<Mode> modes{
      {"per-type (Alg. 3)", opt::GreedyMode::kPerType},
      {"lazy global", opt::GreedyMode::kLazyGlobal},
  };

  std::vector<std::string> header{"chargers(x)"};
  for (const auto& m : modes) {
    header.push_back(m.name + " util");
    header.push_back(m.name + " ms");
  }
  header.push_back("lazy+swap util");
  header.push_back("lazy+swap ms");
  Table table(std::move(header));

  for (int mult : {1, 2, 4, 8}) {
    std::vector<RunningStats> util(modes.size()), ms(modes.size());
    RunningStats ls_util, ls_ms;
    for (int rep = 0; rep < reps; ++rep) {
      model::GenOptions opt;
      opt.charger_multiplier = mult;
      Rng rng(seed_combine(bench::hash_id("ablation_greedy"),
                           static_cast<std::uint64_t>(mult),
                           static_cast<std::uint64_t>(rep)));
      const auto scenario = model::make_paper_scenario(opt, rng);
      const auto extraction = pdcs::extract_all(scenario);
      for (std::size_t m = 0; m < modes.size(); ++m) {
        obs::Stopwatch timer;
        const auto result = opt::select_strategies(
            scenario, extraction.candidates, modes[m].mode);
        ms[m].add(timer.millis());
        util[m].add(result.exact_utility);
      }
      {
        obs::Stopwatch timer;
        const auto lazy = opt::select_strategies(
            scenario, extraction.candidates, opt::GreedyMode::kLazyGlobal);
        const auto swapped = opt::local_search_improve(
            scenario, extraction.candidates, lazy);
        ls_ms.add(timer.millis());
        ls_util.add(swapped.result.exact_utility);
      }
    }
    table.row().add(std::to_string(mult));
    for (std::size_t m = 0; m < modes.size(); ++m) {
      table.add(util[m].mean(), 4);
      table.add(ms[m].mean(), 3);
    }
    table.add(ls_util.mean(), 4);
    table.add(ls_ms.mean(), 3);
  }

  std::cout << "Ablation — greedy variants (same candidates):\n";
  table.print(std::cout);
  std::cout << "\n(per-type is Algorithm 3 as published; lazy global is "
               "the matroid greedy of [38]; lazy+swap adds the matroid-"
               "exchange local search)\n";
  if (csv) table.write_csv_file("ablation_greedy.csv");
  return 0;
}
