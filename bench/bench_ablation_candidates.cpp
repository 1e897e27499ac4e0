// Ablation: PDCS candidate-generation families (Algorithm 2/4 construction
// steps). Disables one family at a time — pair lines, inscribed-angle arcs,
// ring×ring intersections, ring×obstacle/hole constructions,
// receiving-sector sides, singleton boundary samples — and reports the
// utility and candidate-count impact.
#include "bench/harness.hpp"

#include "src/model/scenario_gen.hpp"
#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/stats.hpp"
#include "src/obs/stopwatch.hpp"

using namespace hipo;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = bench::resolve_reps(cli);
  const bool csv = cli.has("csv");
  cli.finish();

  struct Variant {
    std::string name;
    pdcs::ExtractOptions opt;
  };
  std::vector<Variant> variants;
  variants.push_back({"full (HIPO)", {}});
  {
    pdcs::ExtractOptions o;
    o.use_pair_line = false;
    variants.push_back({"- pair lines", o});
  }
  {
    pdcs::ExtractOptions o;
    o.use_pair_arcs = false;
    variants.push_back({"- inscribed arcs", o});
  }
  {
    pdcs::ExtractOptions o;
    o.use_ring_ring = false;
    variants.push_back({"- ring x ring", o});
  }
  {
    pdcs::ExtractOptions o;
    o.use_obstacle_ring = false;
    variants.push_back({"- obstacle/hole", o});
  }
  {
    pdcs::ExtractOptions o;
    o.use_sector_rays = false;
    variants.push_back({"- sector sides", o});
  }
  {
    pdcs::ExtractOptions o;
    o.use_singleton = false;
    variants.push_back({"- singleton", o});
  }
  {
    pdcs::ExtractOptions o;
    o.global_filter = false;
    variants.push_back({"- global filter", o});
  }

  Table table({"variant", "candidates", "utility", "extract ms"});
  for (const auto& v : variants) {
    RunningStats cands, util, ms;
    for (int rep = 0; rep < reps; ++rep) {
      model::GenOptions gen;
      Rng rng(seed_combine(bench::hash_id("ablation_cand"),
                           static_cast<std::uint64_t>(rep)));
      const auto scenario = model::make_paper_scenario(gen, rng);
      obs::Stopwatch timer;
      const auto extraction = pdcs::extract_all(scenario, v.opt);
      ms.add(timer.millis());
      const auto result =
          opt::select_strategies(scenario, extraction.candidates);
      cands.add(static_cast<double>(extraction.candidates.size()));
      util.add(result.exact_utility);
    }
    table.row()
        .add(v.name)
        .add(cands.mean(), 1)
        .add(util.mean(), 4)
        .add(ms.mean(), 2);
  }

  std::cout << "Ablation — PDCS candidate-generation families:\n";
  table.print(std::cout);
  std::cout << "\n(each family contributes candidates; the dominance filter "
               "trades candidate count for selection speed at equal "
               "utility)\n";
  if (csv) table.write_csv_file("ablation_candidates.csv");
  return 0;
}
