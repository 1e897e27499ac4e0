// opt::DeltaSolver: the incremental re-solve path. The headline contract is
// bit-identity — after every prefix of a delta sequence the warm solver's
// matrix, selection, placement, and utilities are byte-for-byte equal to a
// cold solve of the mutated scenario — plus the JSONL script parser and the
// op validation semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/delta.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_results_identical(const opt::GreedyResult& warm,
                              const opt::GreedyResult& cold,
                              const std::string& label) {
  EXPECT_EQ(warm.selected, cold.selected) << label;
  EXPECT_EQ(bits(warm.approx_utility), bits(cold.approx_utility)) << label;
  EXPECT_EQ(bits(warm.exact_utility), bits(cold.exact_utility)) << label;
  ASSERT_EQ(warm.placement.size(), cold.placement.size()) << label;
  for (std::size_t i = 0; i < warm.placement.size(); ++i) {
    EXPECT_EQ(bits(warm.placement[i].pos.x), bits(cold.placement[i].pos.x))
        << label << " slot " << i;
    EXPECT_EQ(bits(warm.placement[i].pos.y), bits(cold.placement[i].pos.y))
        << label << " slot " << i;
    EXPECT_EQ(bits(warm.placement[i].orientation),
              bits(cold.placement[i].orientation))
        << label << " slot " << i;
    EXPECT_EQ(warm.placement[i].type, cold.placement[i].type)
        << label << " slot " << i;
  }
}

/// Cold reference: fresh extraction + the span-based greedy, exactly the
/// configuration DeltaSolver defaults to (with the solver's extraction
/// options when they differ from the defaults).
void expect_matches_cold(const opt::DeltaSolver& delta,
                         const std::string& label,
                         const pdcs::ExtractOptions& extract = {}) {
  const model::Scenario cold_scenario{model::Scenario::Config(delta.config())};
  const auto extraction = pdcs::extract_all(cold_scenario, extract);
  const opt::CoverageMatrix cold_matrix(
      std::span<const pdcs::Candidate>(extraction.candidates),
      cold_scenario.num_devices());
  EXPECT_TRUE(delta.matrix().same_as(cold_matrix)) << label << " (matrix)";
  const auto cold = opt::select_strategies(
      cold_scenario, extraction.candidates, opt::GreedyMode::kLazyGlobal,
      opt::ObjectiveKind::kUtility);
  expect_results_identical(delta.result(), cold, label);
}

/// Apply `op` and check the row bookkeeping: the old rows minus the erased
/// ones plus the inserted ones are exactly the new matrix's rows.
opt::DeltaStats apply_checked(opt::DeltaSolver& delta, const opt::DeltaOp& op,
                              const std::string& label) {
  const std::size_t old_rows = delta.num_candidates();
  const opt::DeltaStats stats = delta.apply(op);
  EXPECT_EQ(old_rows - stats.rows_erased + stats.rows_inserted,
            delta.num_candidates())
      << label << " (row bookkeeping)";
  return stats;
}

/// Deterministic grid scan for the skip-th position no obstacle interior
/// contains (valid for devices and obstacle centers alike).
geom::Vec2 free_spot(const model::Scenario::Config& cfg, std::size_t skip) {
  const geom::Vec2 ext = cfg.region.extent();
  std::size_t seen = 0;
  for (int gy = 1; gy < 10; ++gy) {
    for (int gx = 1; gx < 10; ++gx) {
      const geom::Vec2 p{cfg.region.lo.x + ext.x * gx / 10.0,
                         cfg.region.lo.y + ext.y * gy / 10.0};
      bool free = true;
      for (const auto& h : cfg.obstacles) {
        if (h.contains_interior(p, 1e-6)) {
          free = false;
          break;
        }
      }
      if (!free) continue;
      if (seen++ == skip) return p;
    }
  }
  ADD_FAILURE() << "no free spot found";
  return cfg.region.lo;
}

/// Small axis-aligned square around `center`, nudged sideways until it
/// swallows no device.
std::vector<geom::Vec2> obstacle_rect_at(const model::Scenario::Config& cfg,
                                         geom::Vec2 center, double half) {
  for (const auto& d : cfg.devices) {
    if (std::abs(d.pos.x - center.x) <= half + 1e-6 &&
        std::abs(d.pos.y - center.y) <= half + 1e-6) {
      return obstacle_rect_at(cfg, {center.x + 2.5 * half, center.y}, half);
    }
  }
  return {{center.x - half, center.y - half},
          {center.x + half, center.y - half},
          {center.x + half, center.y + half},
          {center.x - half, center.y + half}};
}

opt::DeltaOp add_device_op(geom::Vec2 p, std::size_t type = 0) {
  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kAddDevice;
  op.device = test::device_at(p.x, p.y, 0.0, type);
  return op;
}

opt::DeltaOp remove_device_op(std::size_t index) {
  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kRemoveDevice;
  op.index = index;
  return op;
}

opt::DeltaOp move_device_op(std::size_t index, geom::Vec2 p) {
  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kMoveDevice;
  op.index = index;
  op.pos = p;
  return op;
}

opt::DeltaOp add_obstacle_op(std::vector<geom::Vec2> vertices) {
  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kAddObstacle;
  op.obstacle = std::move(vertices);
  return op;
}

opt::DeltaOp remove_obstacle_op(std::size_t index) {
  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kRemoveObstacle;
  op.index = index;
  return op;
}

/// A spread-out scenario where the task_reach invalidation disk is small
/// relative to the region — deltas in one corner must not touch the rest.
model::Scenario::Config spread_config() {
  auto cfg = test::simple_config();  // one type, d_max = 5 → radius ≈ 10
  cfg.region.lo = {0.0, 0.0};
  cfg.region.hi = {100.0, 100.0};
  cfg.charger_counts = {4};
  for (const double x : {5.0, 50.0, 95.0}) {
    for (const double y : {5.0, 50.0, 95.0}) {
      cfg.devices.push_back(test::device_at(x, y));
      cfg.devices.push_back(test::device_at(x + 2.0, y + 1.0));
    }
  }
  cfg.obstacles = {geom::make_rect({48.0, 44.0}, {54.0, 46.0}),
                   geom::make_rect({8.0, 90.0}, {11.0, 94.0})};
  return cfg;
}

/// Whether `m` holds a row with exactly `c`'s strategy, devices and powers.
bool matrix_has_row(const opt::CoverageMatrix& m, const pdcs::Candidate& c) {
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    const model::Strategy& s = m.strategy(r);
    if (bits(s.pos.x) != bits(c.strategy.pos.x) ||
        bits(s.pos.y) != bits(c.strategy.pos.y) ||
        bits(s.orientation) != bits(c.strategy.orientation) ||
        s.type != c.strategy.type || m.covered(r).size() != c.covered.size()) {
      continue;
    }
    bool same = true;
    for (std::size_t k = 0; k < c.covered.size(); ++k) {
      same = same && m.covered(r)[k] == c.covered[k] &&
             bits(m.powers(r)[k]) == bits(c.powers[k]);
    }
    if (same) return true;
  }
  return false;
}

/// Task `task`'s rows in a cold extraction of `cfg`, and for each whether
/// it survives the global filter over the whole task table.
std::pair<std::vector<pdcs::Candidate>, std::vector<bool>> cold_task_verdicts(
    const model::Scenario::Config& cfg, std::size_t task) {
  const model::Scenario s{model::Scenario::Config(cfg)};
  std::vector<std::size_t> tasks(s.num_devices());
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i] = i;
  std::vector<std::vector<pdcs::Candidate>> table(s.num_devices());
  const pdcs::ExtractOptions opt;
  pdcs::run_tasks(s, tasks, opt, nullptr, table);
  std::vector<bool> survives(table[task].size(), false);
  for (const auto& kept : pdcs::filter_by_type(
           table, s.num_charger_types(), s.num_devices(), opt)) {
    for (const pdcs::RowRef ref : kept) {
      if (ref.slot == task) survives[ref.row] = true;
    }
  }
  return {table[task], survives};
}

TEST(DeltaSolver, ColdConstructionMatchesColdSolve) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10),
                 test::device_at(10, 13), test::device_at(4, 4)};
  cfg.obstacles = {geom::make_rect({11.0, 9.5}, {12.0, 10.5})};
  const opt::DeltaSolver delta{model::Scenario::Config(cfg)};
  expect_matches_cold(delta, "cold construction");
  EXPECT_GT(delta.num_candidates(), 0u);
}

TEST(DeltaSolver, DeviceChurnBitIdenticalAfterEveryPrefix) {
  const auto scenario = test::small_paper_scenario(5);
  opt::DeltaSolver delta(scenario.to_config());
  expect_matches_cold(delta, "prefix 0 (cold)");

  std::vector<opt::DeltaOp> ops;
  ops.push_back(add_device_op(free_spot(delta.config(), 0)));
  ops.push_back(move_device_op(0, free_spot(delta.config(), 7)));
  ops.push_back(remove_device_op(1));
  ops.push_back(add_device_op(free_spot(delta.config(), 12),
                              delta.config().device_types.size() - 1));
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::string label = "device prefix " + std::to_string(k + 1);
    const auto stats = apply_checked(delta, ops[k], label);
    EXPECT_EQ(stats.tasks_total, delta.config().devices.size());
    expect_matches_cold(delta, label);
  }
  // One more computed against the mutated state: move the appended device.
  const std::size_t last = delta.config().devices.size() - 1;
  apply_checked(delta, move_device_op(last, free_spot(delta.config(), 3)),
                "device prefix tail");
  expect_matches_cold(delta, "device prefix tail");
}

TEST(DeltaSolver, MoveWithOrientationBitIdentical) {
  const auto scenario = test::small_paper_scenario(11);
  opt::DeltaSolver delta(scenario.to_config());
  opt::DeltaOp op = move_device_op(2, free_spot(delta.config(), 9));
  op.has_orientation = true;
  op.orientation = 1.25;
  delta.apply(op);
  EXPECT_EQ(bits(delta.config().devices[2].orientation), bits(1.25));
  expect_matches_cold(delta, "move with orientation");
}

TEST(DeltaSolver, ObstacleChurnBitIdenticalAfterEveryPrefix) {
  const auto scenario = test::small_paper_scenario(7);
  opt::DeltaSolver delta(scenario.to_config());

  const auto rect = obstacle_rect_at(delta.config(),
                                     free_spot(delta.config(), 5), 1.5);
  apply_checked(delta, add_obstacle_op(rect), "obstacle add");
  expect_matches_cold(delta, "obstacle add");

  ASSERT_GE(delta.config().obstacles.size(), 2u);
  // A pre-existing obstacle.
  apply_checked(delta, remove_obstacle_op(0), "obstacle remove first");
  expect_matches_cold(delta, "obstacle remove first");

  apply_checked(delta,
                remove_obstacle_op(delta.config().obstacles.size() - 1),
                "obstacle remove added");
  expect_matches_cold(delta, "obstacle remove added");
}

TEST(DeltaSolver, ThreadCountInvariance) {
  const auto scenario = test::small_paper_scenario(13);
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool4(4);
  opt::DeltaOptions seq;
  opt::DeltaOptions one;
  one.workers = &pool1;
  opt::DeltaOptions four;
  four.workers = &pool4;

  opt::DeltaSolver a(scenario.to_config(), seq);
  opt::DeltaSolver b(scenario.to_config(), one);
  opt::DeltaSolver c(scenario.to_config(), four);
  std::vector<opt::DeltaOp> ops;
  ops.push_back(add_device_op(free_spot(a.config(), 2)));
  ops.push_back(move_device_op(1, free_spot(a.config(), 8)));
  ops.push_back(remove_device_op(0));
  ops.push_back(add_obstacle_op(
      obstacle_rect_at(a.config(), free_spot(a.config(), 14), 1.0)));
  for (std::size_t k = 0; k < ops.size(); ++k) {
    a.apply(ops[k]);
    b.apply(ops[k]);
    c.apply(ops[k]);
    const std::string label = "threads prefix " + std::to_string(k + 1);
    EXPECT_TRUE(a.matrix().same_as(b.matrix())) << label;
    EXPECT_TRUE(a.matrix().same_as(c.matrix())) << label;
    expect_results_identical(b.result(), a.result(), label + " (1 vs 0)");
    expect_results_identical(c.result(), a.result(), label + " (4 vs 0)");
  }
  expect_matches_cold(c, "threads final vs cold");
}

TEST(DeltaSolver, RemoveToEmptyAndRegrow) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(14, 11)};
  opt::DeltaSolver delta{model::Scenario::Config(cfg)};

  delta.apply(remove_device_op(1));
  expect_matches_cold(delta, "down to one device");
  delta.apply(remove_device_op(0));
  EXPECT_EQ(delta.config().devices.size(), 0u);
  EXPECT_EQ(delta.num_candidates(), 0u);
  EXPECT_TRUE(delta.result().placement.empty());
  delta.apply(add_device_op({8.0, 9.0}));
  expect_matches_cold(delta, "regrown from empty");
}

TEST(DeltaSolver, FullRebuildOnlyWhenEveryTaskIsAffected) {
  // (a) A cluster inside one task_reach ≈ 2·d_max disk around the move's
  // destination: the move reaches every task.
  auto cluster = test::simple_config();  // d_max = 5 → radius ≈ 10
  cluster.devices = {test::device_at(6, 8),   test::device_at(9, 6),
                     test::device_at(12, 7),  test::device_at(14, 10),
                     test::device_at(11, 14), test::device_at(7, 13)};
  cluster.obstacles = {geom::make_rect({9.5, 9.0}, {10.5, 9.5})};
  opt::DeltaSolver whole{model::Scenario::Config(cluster)};
  const auto all = whole.apply(move_device_op(3, {10.0, 11.0}));
  EXPECT_TRUE(all.full_rebuild);
  EXPECT_EQ(all.tasks_regenerated, all.tasks_total);
  EXPECT_EQ(all.rows_kept, 0u);
  expect_matches_cold(whole, "every task affected");

  // (b) A cluster of six devices and a far pair: moving a cluster device
  // reaches 6 of 8 tasks — most of them, but the far pair stays warm.
  auto cfg = test::simple_config();  // d_max = 5 → radius ≈ 10
  cfg.region.hi = {100.0, 100.0};
  cfg.devices = {test::device_at(5, 5),   test::device_at(7, 6),
                 test::device_at(9, 5),   test::device_at(5, 9),
                 test::device_at(8, 8),   test::device_at(10, 10),
                 test::device_at(90, 90), test::device_at(92, 91)};
  opt::DeltaSolver most{model::Scenario::Config(cfg)};
  const auto part = most.apply(move_device_op(0, {6.0, 6.0}));
  EXPECT_FALSE(part.full_rebuild);
  EXPECT_EQ(part.tasks_total, 8u);
  EXPECT_EQ(part.tasks_regenerated, 6u);
  EXPECT_GT(part.rows_kept, 0u);
  expect_matches_cold(most, "most tasks affected");
}

TEST(DeltaSolver, LocalDeltaRegeneratesOnlyTheNeighborhood) {
  opt::DeltaSolver delta{spread_config()};
  const std::size_t rows_before = delta.matrix().num_rows();

  // Move a corner device by one meter: only the corner cluster (2 devices
  // plus nothing else within the task_reach ≈ 10 m disk) may re-extract.
  const auto stats = delta.apply(move_device_op(0, {6.0, 6.0}));
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(stats.tasks_total, 18u);
  EXPECT_LE(stats.tasks_regenerated, 4u);
  EXPECT_GT(stats.rows_kept, 0u);
  EXPECT_LT(stats.rows_erased + stats.rows_inserted, rows_before);
  expect_matches_cold(delta, "local move");

  // An obstacle appearing in the middle leaves the corners untouched.
  const auto obst_stats = delta.apply(add_obstacle_op(
      obstacle_rect_at(delta.config(), {60.0, 55.0}, 2.0)));
  EXPECT_FALSE(obst_stats.full_rebuild);
  EXPECT_LT(obst_stats.tasks_regenerated, obst_stats.tasks_total);
  expect_matches_cold(delta, "local obstacle");
}

TEST(DeltaSolver, MoveFlipsTheVerdictOfAnUnaffectedTasksRow) {
  // A move re-extracts only the tasks within task_reach ≈ 10 m, but the
  // re-extracted rows can dominate, or stop dominating, a row of a task
  // outside that disk. That row is in the dirty set (it covers a device a
  // changed row covers), so its survivor flag must flip with the cold
  // verdict although its task is kept warm.
  struct Case {
    const char* label;
    std::vector<geom::Vec2> devices;
    std::size_t moved;
    geom::Vec2 to;
    std::size_t watched;  // the unaffected task
    bool survives_after;
  };
  const std::vector<Case> cases = {
      {"un-dominated", {{26.0, 10.5}, {34.0, 0.5}, {29.5, 4.0}}, 1,
       {36.0, 0.0}, 0, true},
      {"newly dominated",
       {{20.0, 9.5}, {31.5, 9.0}, {14.0, 5.5}, {29.5, 5.5}, {28.0, 2.0}},
       0, {21.5, 8.5}, 1, false},
  };
  for (const Case& c : cases) {
    auto cfg = test::simple_config();  // d_max = 5 → radius ≈ 10
    cfg.region.hi = {40.0, 12.0};
    for (const geom::Vec2 p : c.devices) {
      cfg.devices.push_back(test::device_at(p.x, p.y));
    }
    const model::Scenario scenario{model::Scenario::Config(cfg)};
    const double reach = pdcs::task_reach(scenario);
    const geom::Vec2 watched = c.devices[c.watched];
    ASSERT_GT(geom::distance(watched, c.devices[c.moved]), reach) << c.label;
    ASSERT_GT(geom::distance(watched, c.to), reach) << c.label;

    opt::DeltaSolver delta{model::Scenario::Config(cfg)};
    const opt::CoverageMatrix before = delta.matrix();
    const auto [rows, was] = cold_task_verdicts(cfg, c.watched);
    const auto stats =
        apply_checked(delta, move_device_op(c.moved, c.to), c.label);
    EXPECT_LT(stats.tasks_regenerated, stats.tasks_total) << c.label;
    expect_matches_cold(delta, c.label);

    const auto [rows_after, now] = cold_task_verdicts(delta.config(),
                                                      c.watched);
    ASSERT_EQ(rows_after.size(), rows.size()) << c.label;
    std::size_t flipped = 0;
    for (std::size_t e = 0; e < rows.size(); ++e) {
      EXPECT_EQ(matrix_has_row(before, rows[e]), was[e]) << c.label;
      EXPECT_EQ(matrix_has_row(delta.matrix(), rows[e]), now[e]) << c.label;
      if (was[e] == now[e]) continue;
      ++flipped;
      EXPECT_EQ(now[e], c.survives_after) << c.label << " row " << e;
    }
    EXPECT_GE(flipped, 1u) << c.label;
  }
}

TEST(DeltaSolver, LocalMoveRefiltersAFractionOfTheTable) {
  // Nine two-device clusters 45 m apart: a one-meter move in a corner
  // re-filters the rows near that corner, not the table.
  opt::DeltaSolver delta{spread_config()};
  const model::Scenario cold{model::Scenario::Config(delta.config())};
  const std::size_t table_rows = pdcs::extract_all(cold).raw_candidates;

  const auto stats = delta.apply(move_device_op(0, {6.0, 6.0}));
  EXPECT_GT(stats.rows_refiltered, 0u);
  EXPECT_LT(4 * stats.rows_refiltered, table_rows)
      << stats.rows_refiltered << " of " << table_rows << " rows";
  expect_matches_cold(delta, "local move");

  // A delta that reaches every task re-filters the whole table.
  auto cluster = test::simple_config();
  cluster.devices = {test::device_at(6, 8), test::device_at(9, 6),
                     test::device_at(12, 7)};
  opt::DeltaSolver whole{model::Scenario::Config(cluster)};
  const auto all = whole.apply(move_device_op(1, {9.0, 7.0}));
  ASSERT_TRUE(all.full_rebuild);
  const model::Scenario whole_cold{model::Scenario::Config(whole.config())};
  EXPECT_EQ(all.rows_refiltered,
            pdcs::extract_all(whole_cold).raw_candidates);
}

TEST(DeltaSolver, UnfilteredChurnBitIdenticalToColdUnfiltered) {
  // With the global filter off every row survives in table order; the
  // warm table must still match a cold extraction under the same options
  // through device and obstacle churn.
  const auto scenario = test::small_paper_scenario(17);
  opt::DeltaOptions options;
  options.extract.global_filter = false;
  opt::DeltaSolver delta(scenario.to_config(), options);
  expect_matches_cold(delta, "unfiltered cold", options.extract);

  std::vector<opt::DeltaOp> ops;
  ops.push_back(add_device_op(free_spot(delta.config(), 4)));
  ops.push_back(move_device_op(2, free_spot(delta.config(), 10)));
  ops.push_back(remove_device_op(0));
  ops.push_back(add_obstacle_op(
      obstacle_rect_at(delta.config(), free_spot(delta.config(), 6), 1.0)));
  ops.push_back(remove_obstacle_op(0));
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::string label = "unfiltered prefix " + std::to_string(k + 1);
    apply_checked(delta, ops[k], label);
    expect_matches_cold(delta, label, options.extract);
  }
}

TEST(DeltaSolver, InvalidOpsThrowAndLeaveTheSolverUsable) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 12)};
  cfg.obstacles = {geom::make_rect({5.0, 5.0}, {6.0, 6.0})};
  opt::DeltaSolver delta{model::Scenario::Config(cfg)};

  EXPECT_THROW(delta.apply(remove_device_op(2)), ConfigError);
  EXPECT_THROW(delta.apply(move_device_op(7, {1.0, 1.0})), ConfigError);
  EXPECT_THROW(delta.apply(move_device_op(0, {999.0, 1.0})), ConfigError);
  EXPECT_THROW(delta.apply(move_device_op(0, {5.5, 5.5})), ConfigError);
  EXPECT_THROW(delta.apply(remove_obstacle_op(1)), ConfigError);
  EXPECT_THROW(delta.apply(add_obstacle_op({{0.0, 0.0}, {1.0, 0.0}})),
               ConfigError);
  // Obstacle swallowing a device.
  EXPECT_THROW(delta.apply(add_obstacle_op(
                   {{9.0, 9.0}, {11.0, 9.0}, {11.0, 11.0}, {9.0, 11.0}})),
               ConfigError);
  opt::DeltaOp bad_device = add_device_op({15.0, 15.0});
  bad_device.device.p_th = 0.0;
  EXPECT_THROW(delta.apply(bad_device), ConfigError);
  bad_device.device.p_th = 0.05;
  bad_device.device.type = 9;
  EXPECT_THROW(delta.apply(bad_device), ConfigError);
  opt::DeltaOp nan_turn = move_device_op(0, {11.0, 10.0});
  nan_turn.has_orientation = true;
  nan_turn.orientation = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(delta.apply(nan_turn), ConfigError);
  // Bow-tie (nonzero area, self-crossing) and an obstacle with an infinite
  // vertex: both construct as polygons and only the scenario rejects them.
  EXPECT_THROW(
      delta.apply(add_obstacle_op({{1.0, 1.0}, {4.0, 2.0}, {3.0, 1.0},
                                   {1.0, 3.0}})),
      ConfigError);
  EXPECT_THROW(delta.apply(add_obstacle_op(
                   {{0.0, -1.0},
                    {std::numeric_limits<double>::infinity(), 0.0},
                    {0.0, 1.0}})),
               ConfigError);

  // The rejected ops mutated nothing: the solver still matches cold.
  expect_matches_cold(delta, "after rejected ops");
  delta.apply(move_device_op(0, {11.0, 10.0}));
  expect_matches_cold(delta, "good op after rejected ops");
}

TEST(DeltaScript, ParsesEveryOpKindWithDefaults) {
  const std::string text =
      "# churn script\n"
      "\n"
      "{\"op\":\"add_device\",\"x\":1.5,\"y\":2.5}\n"
      "{\"op\":\"add_device\",\"x\":1,\"y\":2,\"orientation\":0.5,"
      "\"type\":2,\"p_th\":0.1,\"weight\":3.0}\n"
      "{\"op\":\"remove_device\",\"index\":4}\n"
      "{\"op\":\"move_device\",\"index\":1,\"x\":-3.25,\"y\":8}\n"
      "{\"op\":\"move_device\",\"index\":0,\"x\":1,\"y\":1,"
      "\"orientation\":2.5}\n"
      "{\"op\":\"add_obstacle\",\"vertices\":[[0,0],[2,0],[1,2]]}\n"
      "{\"op\":\"remove_obstacle\",\"index\":0}\n"
      // Lines are JSON documents, so string escapes decode.
      "{\"op\":\"remove_\\u0064evice\",\"\\u0069ndex\":2}\n";
  const auto ops = opt::parse_delta_script(text);
  ASSERT_EQ(ops.size(), 8u);

  EXPECT_EQ(ops[0].kind, opt::DeltaOp::Kind::kAddDevice);
  EXPECT_EQ(bits(ops[0].device.pos.x), bits(1.5));
  EXPECT_EQ(bits(ops[0].device.pos.y), bits(2.5));
  EXPECT_EQ(ops[0].device.type, 0u);
  EXPECT_EQ(bits(ops[0].device.p_th), bits(0.05));
  EXPECT_EQ(bits(ops[0].device.weight), bits(1.0));

  EXPECT_EQ(ops[1].device.type, 2u);
  EXPECT_EQ(bits(ops[1].device.orientation), bits(0.5));
  EXPECT_EQ(bits(ops[1].device.p_th), bits(0.1));
  EXPECT_EQ(bits(ops[1].device.weight), bits(3.0));

  EXPECT_EQ(ops[2].kind, opt::DeltaOp::Kind::kRemoveDevice);
  EXPECT_EQ(ops[2].index, 4u);

  EXPECT_EQ(ops[3].kind, opt::DeltaOp::Kind::kMoveDevice);
  EXPECT_FALSE(ops[3].has_orientation);
  EXPECT_EQ(bits(ops[3].pos.x), bits(-3.25));

  EXPECT_TRUE(ops[4].has_orientation);
  EXPECT_EQ(bits(ops[4].orientation), bits(2.5));

  EXPECT_EQ(ops[5].kind, opt::DeltaOp::Kind::kAddObstacle);
  ASSERT_EQ(ops[5].obstacle.size(), 3u);
  EXPECT_EQ(bits(ops[5].obstacle[2].y), bits(2.0));

  EXPECT_EQ(ops[6].kind, opt::DeltaOp::Kind::kRemoveObstacle);
  EXPECT_EQ(ops[6].index, 0u);

  EXPECT_EQ(ops[7].kind, opt::DeltaOp::Kind::kRemoveDevice);
  EXPECT_EQ(ops[7].index, 2u);
}

TEST(DeltaScript, RejectsMalformedLinesNamingThem) {
  const auto expect_fails = [](const std::string& line,
                               const std::string& needle) {
    try {
      opt::parse_delta_script(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_fails("{\"op\":\"warp_device\",\"index\":0}", "unknown op");
  expect_fails("{\"x\":1,\"y\":2}", "missing \"op\"");
  expect_fails("{\"op\":\"add_device\",\"x\":1}", "missing \"y\"");
  expect_fails("{\"op\":\"remove_device\",\"index\":-1}",
               "non-negative integer");
  expect_fails("{\"op\":\"remove_device\",\"index\":1.5}",
               "non-negative integer");
  expect_fails("{\"op\":\"remove_device\",\"index\":1} trailing", "trailing");
  expect_fails("{\"op\":\"add_device\",\"x\":nope,\"y\":2}",
               "invalid literal");
  expect_fails("{\"op\":\"add_device\",\"x\":1,\"x\":2,\"y\":3}",
               "duplicate key");
  expect_fails("{\"op\":\"add_obstacle\"}", "vertices");
  expect_fails("{\"op\":\"add_device\",\"x\":1e999,\"y\":0}", "finite");
  // RFC 8259 numbers only: no hex, no leading '+', no empty fraction, no
  // hex float, no leading zero, no bare fraction. A token that cannot start
  // a number ('+', '.') is "expected a value" to the wire parser.
  expect_fails("{\"op\":\"remove_device\",\"index\":0x10}", "number");
  expect_fails("{\"op\":\"remove_device\",\"index\":+2}",
               "expected a value");
  expect_fails("{\"op\":\"remove_device\",\"index\":2.}", "number");
  expect_fails("{\"op\":\"add_device\",\"x\":0x1p4,\"y\":0}", "number");
  expect_fails("{\"op\":\"remove_device\",\"index\":01}", "number");
  expect_fails("{\"op\":\"add_device\",\"x\":.5,\"y\":0}",
               "expected a value");
  // An embedded NUL does not end the line.
  expect_fails(std::string("{\"op\":\"remove_device\",\"index\":3}") +
                   '\0' + "junk",
               "trailing");
  expect_fails("{\"op\":\"move_device\"", "expected");
  expect_fails("{\"op\":\"remove_device\",\"op\":\"add_device\",\"index\":0}",
               "duplicate key \"op\"");
  expect_fails(
      "{\"op\":\"add_obstacle\",\"vertices\":[[0,0],[1,0],[0,1]],"
      "\"vertices\":[[2,2],[3,2],[2,3]]}",
      "duplicate key \"vertices\"");
  expect_fails("{\"op\":\"remove_device\",\"idx\":1}",
               "unknown field \"idx\"");
  expect_fails("{\"op\":\"add_device\",\"x\":1,\"y\":2,\"pth\":0.1}",
               "unknown field \"pth\"");
  expect_fails(
      "{\"op\":\"move_device\",\"index\":0,\"x\":1,\"y\":2,"
      "\"vertices\":[[0,0],[1,0],[0,1]]}",
      "only valid for add_obstacle");
  expect_fails("{\"op\":7,\"index\":0}", "expected string");
  expect_fails("{\"op\":\"remove_device\",\"index\":\"0\"}",
               "\"index\" must be a number");
  expect_fails("{\"op\":\"add_obstacle\",\"vertices\":[[0,0],[1,0],[0]]}",
               "[x, y] pair");
  expect_fails("[{\"op\":\"remove_device\",\"index\":0}]",
               "must be a JSON object");
  // Nesting is bounded: a deep line is an error, not a stack overflow.
  expect_fails("{\"op\":\"add_obstacle\",\"vertices\":" +
                   std::string(std::size_t{1} << 20, '['),
               "nesting");
}

TEST(DeltaScript, ErrorsCarryTheOneBasedLineNumber) {
  const std::string text =
      "# comment\n"
      "{\"op\":\"remove_device\",\"index\":0}\n"
      "\n"
      "{\"op\":\"remove_device\",\"index\":0,\"bogus\":1}\n";
  try {
    opt::parse_delta_script(text);
    ADD_FAILURE() << "accepted a script with an unknown field";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("\"bogus\""), std::string::npos) << what;
  }
}

TEST(DeltaScript, ScriptDrivenChurnMatchesDirectOps) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(13, 9)};
  const std::string text =
      "{\"op\":\"add_device\",\"x\":6,\"y\":12}\n"
      "{\"op\":\"move_device\",\"index\":1,\"x\":14,\"y\":12}\n"
      "{\"op\":\"add_obstacle\",\"vertices\":[[11,10.5],[12,10.5],"
      "[12,11.5],[11,11.5]]}\n"
      "{\"op\":\"remove_device\",\"index\":0}\n";
  opt::DeltaSolver delta{model::Scenario::Config(cfg)};
  for (const auto& op : opt::parse_delta_script(text)) delta.apply(op);
  expect_matches_cold(delta, "script-driven churn");
}

}  // namespace
}  // namespace hipo
