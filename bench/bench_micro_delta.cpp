// Incremental re-solve microbenchmark: warm opt::DeltaSolver::apply vs a
// cold full re-solve (extract_all + CoverageMatrix + select_strategies) for
// single-device deltas, swept over candidate-pool sizes (~8k and ~32k).
//
// The scenario is built for locality: clusters of devices spread over a
// region much larger than the pdcs::task_reach (≈ 2·d_max) invalidation
// disk, so a device move re-extracts only its neighborhood. (In the paper's
// Table 2 geometry a 40×40 region is barely larger than that disk; dynamic
// scenarios only pay off when the field out-scales the charging range,
// which is what this harness models.)
//
// Every timed warm replan is also an equivalence check: the warm matrix
// must be byte-identical to a fresh build of the mutated scenario, and the
// warm selection/placement/utilities bit-identical to the cold solve — the
// benchmark aborts otherwise. Emits machine-readable JSON (BENCH_delta.json,
// schema in docs/FORMATS.md) alongside the human-readable table.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/geometry/polygon.hpp"
#include "src/model/scenario.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/delta.hpp"
#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

using namespace hipo;

namespace {

constexpr double kDMax = 5.0;      // charging range; 2·d_max = 10 m disk
constexpr double kSpacing = 12.0;  // cluster pitch (> 2·d_max: independent)
constexpr std::size_t kPerCluster = 3;

/// A side × side grid of 3-device clusters. One charger type (α = π/2,
/// d ∈ [1, 5], budget 16) and a handful of obstacle rects between clusters;
/// density is constant, so candidates grow linearly with the grid.
model::Scenario::Config clustered_config(std::size_t side, Rng& rng) {
  model::Scenario::Config cfg;
  const double extent = kSpacing * static_cast<double>(side) + 8.0;
  cfg.region = {{0.0, 0.0}, {extent, extent}};
  cfg.eps1 = 0.3;
  cfg.charger_types.push_back({geom::kPi / 2.0, 1.0, kDMax});
  cfg.charger_counts.push_back(16);
  cfg.device_types.push_back({geom::kPi});
  cfg.pair_params.push_back({10.0, 2.0});
  for (std::size_t gy = 0; gy < side; ++gy) {
    for (std::size_t gx = 0; gx < side; ++gx) {
      const geom::Vec2 center{8.0 + kSpacing * static_cast<double>(gx),
                              8.0 + kSpacing * static_cast<double>(gy)};
      for (std::size_t k = 0; k < kPerCluster; ++k) {
        model::Device d;
        d.pos = {center.x + rng.uniform(-2.0, 2.0),
                 center.y + rng.uniform(-2.0, 2.0)};
        d.orientation = rng.angle();
        d.type = 0;
        d.p_th = 0.5;
        d.weight = 1.0;
        cfg.devices.push_back(d);
      }
      // An obstacle rect in every 4th inter-cluster gap: enough geometry to
      // keep the LOS machinery honest without swallowing any device.
      if ((gx + gy) % 4 == 1) {
        const geom::Vec2 o{center.x + kSpacing / 2.0 - 1.0, center.y - 1.0};
        cfg.obstacles.push_back(geom::make_rect(o, {o.x + 2.0, o.y + 2.0}));
      }
    }
  }
  return cfg;
}

/// Smallest cluster grid whose pool reaches `target` candidates (the pool
/// grows linearly with the grid, so this converges in a few probes).
opt::DeltaSolver sized_solver(std::size_t target, std::uint64_t seed,
                              std::size_t& side_out) {
  std::size_t side = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::sqrt(static_cast<double>(target)) / 6));
  for (int probe = 0; probe < 12; ++probe, ++side) {
    Rng rng(seed_combine(seed, side));
    opt::DeltaSolver solver(clustered_config(side, rng));
    if (solver.num_candidates() >= target) {
      side_out = side;
      return solver;
    }
    // Scale the side by the observed per-cluster yield before re-probing,
    // overshooting by 10% so a yield estimate that lands just short does
    // not degenerate into a probe-per-side creep (each probe is a full
    // cold pipeline).
    const double yield = static_cast<double>(solver.num_candidates()) /
                         static_cast<double>(side * side);
    const double need =
        1.1 * static_cast<double>(target) / std::max(yield, 1.0);
    side = std::max(side, static_cast<std::size_t>(std::ceil(
                              std::sqrt(need))) - 1);
  }
  throw ConfigError("sized_solver: target pool size not reached");
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Cold reference re-solve of `cfg`, timed: the full pipeline a static
/// deployment would re-run from scratch on every scenario change.
opt::GreedyResult cold_solve(const model::Scenario::Config& cfg,
                             opt::CoverageMatrix& matrix_out,
                             double& seconds_out) {
  obs::Stopwatch t;
  const model::Scenario scenario{model::Scenario::Config(cfg)};
  const auto extraction = pdcs::extract_all(scenario);
  opt::CoverageMatrix matrix(
      std::span<const pdcs::Candidate>(extraction.candidates),
      scenario.num_devices());
  auto result = opt::select_strategies(scenario, extraction.candidates,
                                       opt::GreedyMode::kLazyGlobal,
                                       opt::ObjectiveKind::kUtility);
  seconds_out = t.seconds();
  matrix_out = std::move(matrix);
  return result;
}

void require_identical(const opt::GreedyResult& warm,
                       const opt::GreedyResult& cold, std::size_t delta_no) {
  HIPO_REQUIRE(warm.selected == cold.selected,
               "warm selection diverged at delta " + std::to_string(delta_no));
  HIPO_REQUIRE(bits_equal(warm.approx_utility, cold.approx_utility) &&
                   bits_equal(warm.exact_utility, cold.exact_utility),
               "warm utilities diverged at delta " + std::to_string(delta_no));
  HIPO_REQUIRE(warm.placement.size() == cold.placement.size(),
               "placement sizes diverged at delta " + std::to_string(delta_no));
  for (std::size_t i = 0; i < warm.placement.size(); ++i) {
    HIPO_REQUIRE(bits_equal(warm.placement[i].pos.x, cold.placement[i].pos.x) &&
                     bits_equal(warm.placement[i].pos.y,
                                cold.placement[i].pos.y) &&
                     bits_equal(warm.placement[i].orientation,
                                cold.placement[i].orientation) &&
                     warm.placement[i].type == cold.placement[i].type,
                 "placement diverged at delta " + std::to_string(delta_no));
  }
}

struct SizeResult {
  std::size_t target = 0;
  std::size_t candidates = 0;
  std::size_t devices = 0;
  std::size_t deltas = 0;
  std::size_t full_rebuilds = 0;
  /// Median DeltaStats::rows_refiltered: the rows the global filter re-ran
  /// over per delta (its dirty set).
  std::size_t refiltered_median = 0;
  double warm_median_ms = 0.0;
  double cold_median_ms = 0.0;
  double speedup() const {
    return warm_median_ms > 0.0 ? cold_median_ms / warm_median_ms : 0.0;
  }
};

double median_ms(std::vector<double> seconds) {
  HIPO_REQUIRE(!seconds.empty(), "no timings collected");
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2] * 1e3;
}

/// `deltas` single-device moves, round-robin across clusters: warm apply vs
/// cold full re-solve of the same mutated config, verified bit-identical.
SizeResult run_size(std::size_t target, std::size_t deltas,
                    std::uint64_t seed) {
  std::size_t side = 0;
  opt::DeltaSolver solver = sized_solver(target, seed, side);
  Rng rng(seed_combine(seed, 0xDE17A));

  SizeResult out;
  out.target = target;
  out.candidates = solver.num_candidates();
  out.devices = solver.config().devices.size();
  out.deltas = deltas;

  std::vector<double> warm_s, cold_s;
  std::vector<std::size_t> refiltered;
  for (std::size_t k = 0; k < deltas; ++k) {
    // Move one device a small step inside its own cluster (stride a prime
    // through the device list so successive deltas hit distant clusters).
    const std::size_t j = (k * 97 + 13) % solver.config().devices.size();
    opt::DeltaOp op;
    op.kind = opt::DeltaOp::Kind::kMoveDevice;
    op.index = j;
    const geom::Vec2 old = solver.config().devices[j].pos;
    do {
      op.pos = {old.x + rng.uniform(-1.5, 1.5),
                old.y + rng.uniform(-1.5, 1.5)};
    } while (!solver.scenario().position_feasible(op.pos));

    obs::Stopwatch t;
    const opt::DeltaStats stats = solver.apply(op);
    warm_s.push_back(t.seconds());
    if (stats.full_rebuild) ++out.full_rebuilds;
    refiltered.push_back(stats.rows_refiltered);

    opt::CoverageMatrix cold_matrix;
    double cold_seconds = 0.0;
    const auto cold = cold_solve(solver.config(), cold_matrix, cold_seconds);
    cold_s.push_back(cold_seconds);
    HIPO_REQUIRE(solver.matrix().same_as(cold_matrix),
                 "warm matrix differs from a cold build at delta " +
                     std::to_string(k + 1));
    require_identical(solver.result(), cold, k + 1);
  }
  std::sort(refiltered.begin(), refiltered.end());
  out.refiltered_median = refiltered[refiltered.size() / 2];
  out.warm_median_ms = median_ms(std::move(warm_s));
  out.cold_median_ms = median_ms(std::move(cold_s));
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_or("seed", 42));
  const int deltas = cli.get_or("deltas", 9);
  const int max_target = cli.get_or("max-target", 32768);
  const std::string out_path =
      cli.get_or("out", std::string("BENCH_delta.json"));
  cli.finish();
  HIPO_REQUIRE(deltas >= 1, "--deltas must be >= 1");

  std::vector<SizeResult> results;
  Table table({"target", "candidates", "devices", "deltas", "rebuilds",
               "refiltered", "warm ms", "cold ms", "speedup"});
  for (int target : {512, 8192, 32768}) {
    if (target > max_target) continue;
    results.push_back(run_size(static_cast<std::size_t>(target),
                               static_cast<std::size_t>(deltas), seed));
    const SizeResult& r = results.back();
    table.row()
        .add(static_cast<int>(r.target))
        .add(static_cast<int>(r.candidates))
        .add(static_cast<int>(r.devices))
        .add(static_cast<int>(r.deltas))
        .add(static_cast<int>(r.full_rebuilds))
        .add(static_cast<int>(r.refiltered_median))
        .add(fmt(r.warm_median_ms))
        .add(fmt(r.cold_median_ms))
        .add(fmt(r.speedup()));
  }
  HIPO_REQUIRE(!results.empty(), "max-target excluded every pool size");
  table.print(std::cout);
  std::cout << "all warm replans bit-identical to cold solves ("
            << deltas << " single-device delta(s) per size)\n";

  std::ofstream json(out_path);
  HIPO_REQUIRE(json.good(), "cannot open output file " + out_path);
  json << "{\n  \"bench\": \"micro_delta\",\n  \"build\": "
       << obs::build_info_json() << ",\n  \"seed\": " << seed
       << ",\n  \"deltas_per_size\": " << deltas
       << ",\n  \"placements_identical\": true,\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"target\": " << r.target
         << ", \"candidates\": " << r.candidates
         << ", \"devices\": " << r.devices << ", \"deltas\": " << r.deltas
         << ", \"full_rebuilds\": " << r.full_rebuilds
         << ", \"rows_refiltered_median\": " << r.refiltered_median
         << ", \"warm_median_ms\": " << r.warm_median_ms
         << ", \"cold_median_ms\": " << r.cold_median_ms
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"peak_rss_bytes\": " << obs::peak_rss_bytes()
       << "\n}\n";
  std::cout << "JSON written to " << out_path << "\n";
  return 0;
}
