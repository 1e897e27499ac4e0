// Differential fuzz harness for the geometry → PDCS → greedy pipeline.
//
// Modes:
//   hipo_fuzz --iters 500 --seed 1            # fuzz fresh seeded scenarios
//   hipo_fuzz --smoke                         # CI: fixed seeds, bounded work
//   hipo_fuzz --replay case.hipo              # run all oracles on one file
//   hipo_fuzz --replay-dir tests/corpus       # replay a whole corpus
//
// Each iteration generates one scenario from the iteration's seed and runs
// the eight oracles (line_of_sight, coverage, piecewise, greedy,
// determinism, delta, shard, parse). A violation is auto-shrunk to a locally minimal config,
// written to --corpus as a replay file, and reported; the exit status is the
// number of distinct violations (0 = clean). A usage error (unknown flag,
// malformed value) prints a message and exits 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/generator.hpp"
#include "src/fuzz/oracles.hpp"
#include "src/fuzz/shrink.hpp"
#include "src/model/io.hpp"
#include "src/model/scenario.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace {

using hipo::fuzz::NamedOracle;
using hipo::fuzz::Violation;

/// Oracles to run: all, or the single one named by --oracle.
std::vector<NamedOracle> selected_oracles(const std::string& name) {
  std::vector<NamedOracle> out;
  for (const auto& o : hipo::fuzz::all_oracles()) {
    if (name.empty() || name == o.name) out.push_back(o);
  }
  HIPO_REQUIRE(!out.empty(), "unknown oracle: " + name);
  return out;
}

std::optional<Violation> run_selected(const std::vector<NamedOracle>& oracles,
                                      const hipo::model::Scenario& scenario,
                                      std::uint64_t probe_seed) {
  for (const auto& o : oracles) {
    if (auto v = hipo::fuzz::run_oracle(o, scenario, probe_seed)) return v;
  }
  return std::nullopt;
}

int replay_file(const std::vector<NamedOracle>& oracles,
                const std::string& path, std::uint64_t probe_seed) {
  const auto scenario = hipo::model::read_scenario_file(path);
  if (const auto v = run_selected(oracles, scenario, probe_seed)) {
    std::printf("FAIL %s: [%s] %s\n", path.c_str(), v->oracle.c_str(),
                v->detail.c_str());
    return 1;
  }
  std::printf("ok   %s\n", path.c_str());
  return 0;
}

int run(int argc, char** argv) {
  hipo::Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const int iters = cli.get_or("iters", smoke ? 60 : 500);
  const auto base_seed = static_cast<std::uint64_t>(cli.get_or("seed", 1));
  const std::string oracle_name = cli.get_or("oracle", "");
  const std::string corpus_dir = cli.get_or("corpus", "");
  const auto replay = cli.get("replay");
  const std::string replay_dir = cli.get_or("replay-dir", "");
  cli.finish();

  const auto oracles = selected_oracles(oracle_name);

  if (replay) return replay_file(oracles, *replay, base_seed);
  if (!replay_dir.empty()) {
    int failures = 0;
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(replay_dir)) {
      if (e.path().extension() == ".hipo") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      failures += replay_file(oracles, f.string(), base_seed);
    }
    std::printf("%zu corpus case(s), %d failure(s)\n", files.size(), failures);
    return failures;
  }

  hipo::fuzz::GeneratorOptions gen_opt;
  int violations = 0;
  int generated = 0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = hipo::seed_combine(base_seed, i);
    hipo::model::Scenario::Config cfg;
    try {
      cfg = hipo::fuzz::random_config(seed, gen_opt);
    } catch (const std::exception& e) {
      std::printf("iter %d: generator gave up (%s)\n", i, e.what());
      continue;
    }
    ++generated;
    const hipo::model::Scenario scenario(cfg);
    const auto v = run_selected(oracles, scenario, seed);
    if (!v) continue;

    ++violations;
    std::printf("iter %d (seed %llu): [%s] %s\n", i,
                static_cast<unsigned long long>(seed), v->oracle.c_str(),
                v->detail.c_str());

    const auto result = hipo::fuzz::shrink(
        cfg, [&](const hipo::model::Scenario& s) {
          return run_selected(oracles, s, seed);
        });
    std::printf(
        "  shrunk: dropped %d component(s) in %d round(s); minimal case "
        "has %zu obstacle(s), %zu device(s), %zu charger type(s)\n",
        result.removed, result.rounds, result.config.obstacles.size(),
        result.config.devices.size(), result.config.charger_types.size());
    if (!corpus_dir.empty()) {
      std::filesystem::create_directories(corpus_dir);
      const auto path = std::filesystem::path(corpus_dir) /
                        ("fuzz-" + result.violation.oracle + "-seed" +
                         std::to_string(seed) + ".hipo");
      hipo::model::write_scenario_file(
          path.string(), hipo::model::Scenario(result.config));
      std::printf("  replay file: %s\n", path.string().c_str());
    }
  }

  std::printf("%d/%d scenario(s) fuzzed, %d violation(s)\n", generated, iters,
              violations);
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage errors (unknown flags, malformed values) print a message and
  // fail instead of escaping main as an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hipo_fuzz: %s\n", e.what());
    return 1;
  }
}
