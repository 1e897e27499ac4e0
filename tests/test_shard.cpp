#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/serve/wire.hpp"
#include "src/shard/extract.hpp"
#include "src/shard/plan.hpp"
#include "src/shard/runner.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::shard {
namespace {

/// A [0,100]² scenario whose task reach (2·d_max + ε = 10.001) is well below
/// the region size, so multi-shard plans split genuinely distinct
/// neighborhoods. Devices are rejection-sampled deterministically; extras
/// are pinned to shard borders and to exactly 2·d_max from a border.
model::Scenario spread_scenario(std::uint64_t seed, std::size_t devices,
                                bool straddling_obstacle,
                                bool border_devices) {
  model::Scenario::Config cfg = test::simple_config();  // d ∈ [1,5]
  cfg.region.lo = {0.0, 0.0};
  cfg.region.hi = {100.0, 100.0};
  cfg.charger_counts = {3};
  if (straddling_obstacle) {
    // Crosses the x=50 border of a 2×2 plan and spans ≥3 cells of a 1×7
    // strip plan (borders at k·100/7), while staying clear of the border
    // device pins around (50, 50).
    cfg.obstacles.push_back(geom::make_rect({40.0, 60.0}, {72.0, 66.0}));
    cfg.obstacles.push_back(
        geom::Polygon({{12.0, 70.0}, {20.0, 72.0}, {15.0, 78.0}}));
  }
  Rng rng(seed);
  for (std::size_t i = 0; i < devices; ++i) {
    model::Device dev;
    dev.orientation = rng.uniform(0.0, 6.28);
    for (int attempt = 0; attempt < 1000; ++attempt) {
      dev.pos = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      bool inside = false;
      for (const auto& h : cfg.obstacles) {
        if (h.contains(dev.pos)) inside = true;
      }
      if (!inside) break;
    }
    cfg.devices.push_back(dev);
  }
  if (border_devices) {
    // Exactly on the 2×2 borders (x=50 / y=50), on the region corner of the
    // interior cross, and exactly 2·d_max = 10 m from a border — pairs whose
    // Algorithm 4 neighbor set crosses a shard border.
    cfg.devices.push_back(test::device_at(50.0, 10.0));
    cfg.devices.push_back(test::device_at(50.0, 50.0));
    cfg.devices.push_back(test::device_at(10.0, 50.0));
    cfg.devices.push_back(test::device_at(40.0, 25.0));
    cfg.devices.push_back(test::device_at(60.0, 75.0));
    cfg.devices.push_back(test::device_at(50.0, 49.9999));
  }
  return model::Scenario(std::move(cfg));
}

void expect_identical(const pdcs::ExtractionResult& want,
                      const pdcs::ExtractionResult& got) {
  EXPECT_EQ(want.raw_candidates, got.raw_candidates);
  EXPECT_EQ(want.per_type_counts, got.per_type_counts);
  ASSERT_EQ(want.candidates.size(), got.candidates.size());
  for (std::size_t i = 0; i < want.candidates.size(); ++i) {
    const auto& a = want.candidates[i];
    const auto& b = got.candidates[i];
    ASSERT_EQ(a.strategy.type, b.strategy.type) << "candidate " << i;
    ASSERT_EQ(a.strategy.pos.x, b.strategy.pos.x) << "candidate " << i;
    ASSERT_EQ(a.strategy.pos.y, b.strategy.pos.y) << "candidate " << i;
    ASSERT_EQ(a.strategy.orientation, b.strategy.orientation)
        << "candidate " << i;
    ASSERT_EQ(a.covered, b.covered) << "candidate " << i;
    ASSERT_EQ(a.powers, b.powers) << "candidate " << i;
  }
}

pdcs::ExtractionResult sharded(const model::Scenario& s, std::size_t shards,
                               std::size_t processes = 0,
                               parallel::ThreadPool* pool = nullptr,
                               RunnerStats* stats = nullptr) {
  RunnerOptions opt;
  opt.shards = shards;
  opt.processes = processes;
  opt.pool = pool;
  return extract_sharded(s, opt, stats);
}

TEST(ShardPlan, OwnershipPartitionsDevices) {
  const auto s = spread_scenario(31, 40, true, true);
  const ShardPlan plan(s, {.shards = 4});
  EXPECT_EQ(plan.num_shards(), 4u);
  EXPECT_EQ(plan.grid_x() * plan.grid_y(), 4u);
  std::vector<std::size_t> owners(s.num_devices(), 0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    const auto& m = plan.shard(k);
    EXPECT_EQ(m.shard_id, k);
    total += m.owned.size();
    EXPECT_TRUE(std::is_sorted(m.owned.begin(), m.owned.end()));
    for (std::size_t j : m.owned) {
      EXPECT_EQ(plan.owner_of(s.device(j).pos), k);
      ++owners[j];
    }
  }
  EXPECT_EQ(total, s.num_devices());
  for (std::size_t c : owners) EXPECT_EQ(c, 1u);  // exactly one owner each
}

TEST(ShardPlan, BorderDeviceGoesToHigherCell) {
  const auto s = spread_scenario(32, 4, false, false);
  const ShardPlan plan(s, {.shards = 4});  // 2×2, borders at 50
  // Floor semantics: exactly on an interior border → higher-index cell.
  EXPECT_EQ(plan.owner_of({50.0, 10.0}), 1u);
  EXPECT_EQ(plan.owner_of({10.0, 50.0}), 2u);
  EXPECT_EQ(plan.owner_of({50.0, 50.0}), 3u);
  // Region high edge folds into the last cell.
  EXPECT_EQ(plan.owner_of({100.0, 100.0}), 3u);
}

TEST(ShardPlan, SingleShardIsDegenerate) {
  const auto s = spread_scenario(33, 25, true, false);
  const ShardPlan plan(s, {.shards = 1});
  EXPECT_EQ(plan.num_shards(), 1u);
  const auto& m = plan.shard(0);
  EXPECT_EQ(m.owned.size(), s.num_devices());
}

TEST(ShardExtract, SingleShardMatchesExtractAll) {
  const auto s = spread_scenario(35, 30, true, false);
  const auto want = pdcs::extract_all(s);
  const auto got = sharded(s, 1);
  expect_identical(want, got);
  EXPECT_EQ(want.task_seconds.size(), got.task_seconds.size());
}

TEST(ShardExtract, ManyShardCountsMatchExtractAll) {
  const auto s = spread_scenario(36, 40, true, true);
  const auto want = pdcs::extract_all(s);
  for (std::size_t shards : {2u, 4u, 7u}) {
    SCOPED_TRACE(shards);
    expect_identical(want, sharded(s, shards));
  }
}

TEST(ShardExtract, EmptyShardsAreHarmless) {
  // All devices clustered in one corner: most of a 2×2 plan owns nothing.
  model::Scenario::Config cfg = test::simple_config();
  cfg.region.hi = {100.0, 100.0};
  cfg.devices = {test::device_at(5, 5), test::device_at(8, 6),
                 test::device_at(6, 9), test::device_at(11, 8)};
  const model::Scenario s(std::move(cfg));
  const ShardPlan plan(s, {.shards = 4});
  std::size_t empty = 0;
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    if (plan.shard(k).owned.empty()) ++empty;
  }
  EXPECT_GE(empty, 2u);
  expect_identical(pdcs::extract_all(s), sharded(s, 4));
}

TEST(ShardExtract, ObstacleStraddlingThreeShards) {
  // A 7×1 strip plan over the straddling rect: x ∈ [40, 72] crosses cells
  // of width 100/7 ≈ 14.3 — at least three shards own part of it.
  const auto s = spread_scenario(37, 30, true, false);
  const ShardPlan plan(s, {.shards = 7});
  ASSERT_EQ(plan.grid_y(), 1u);
  const geom::BBox box = s.obstacles()[0].bbox();
  EXPECT_GE(plan.owner_of(box.hi) - plan.owner_of(box.lo), 2u);
  expect_identical(pdcs::extract_all(s), sharded(s, 7));
}

TEST(ShardExtract, ThreadPoolDoesNotChangeResult) {
  const auto s = spread_scenario(38, 36, true, true);
  const auto want = pdcs::extract_all(s);
  parallel::ThreadPool pool(4);
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(shards);
    expect_identical(want, sharded(s, shards, 0, &pool));
  }
}

TEST(ShardExtract, ArenaOverCeilingThrows) {
  const auto s = spread_scenario(40, 30, true, false);
  const ShardPlan plan(s, {.shards = 1});
  std::vector<std::vector<pdcs::Candidate>> per_task(s.num_devices());
  const ShardStats st =
      extract_shard(s, plan, 0, pdcs::ExtractOptions{}, 0, per_task);
  ASSERT_GT(st.rows, 0u);
  std::size_t bytes = 0;
  for (const auto& task : per_task) bytes += retained_bytes(task);
  EXPECT_EQ(st.peak_bytes, bytes);

  // The retained rows fit a ceiling of exactly their size, not one byte
  // less.
  std::vector<std::vector<pdcs::Candidate>> fits(s.num_devices());
  EXPECT_NO_THROW(
      extract_shard(s, plan, 0, pdcs::ExtractOptions{}, bytes, fits));
  std::vector<std::vector<pdcs::Candidate>> over(s.num_devices());
  EXPECT_THROW(
      extract_shard(s, plan, 0, pdcs::ExtractOptions{}, bytes - 1, over),
      ConfigError);
}

TEST(ShardRunner, ForkedProcessesMatchInProcess) {
  // No pool here: a fork while pool workers are live can leave the child
  // blocked on a lock a worker held (seen under ASan). The in-process tests
  // cover the pool.
  const auto s = spread_scenario(41, 32, true, true);
  const auto want = pdcs::extract_all(s);
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (std::size_t procs : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << shards << " shards, " << procs
                                        << " procs");
      RunnerStats stats;
      const auto got = sharded(s, shards, procs, nullptr, &stats);
      expect_identical(want, got);
      EXPECT_EQ(stats.shards, shards);
      EXPECT_EQ(stats.processes, std::min(procs, shards));
      EXPECT_EQ(stats.shard_seconds.size(), shards);
      EXPECT_EQ(stats.rows, want.raw_candidates);
      // Worker-measured task seconds must cover every owned task.
      for (double t : got.task_seconds) EXPECT_GE(t, 0.0);
    }
  }
}

TEST(ShardRunner, StatsAccounting) {
  const auto s = spread_scenario(42, 24, true, false);
  RunnerStats stats;
  const auto got = sharded(s, 4, 0, nullptr, &stats);
  EXPECT_EQ(stats.rows, got.raw_candidates);
  EXPECT_GT(stats.pool_bytes, 0u);
  EXPECT_GT(stats.peak_shard_bytes, 0u);
  EXPECT_LE(stats.peak_shard_bytes, stats.pool_bytes);
  EXPECT_GE(stats.merge_seconds, 0.0);

  // pool_bytes is the sum of the per-shard retained bytes.
  const ShardPlan plan(s, {.shards = 4});
  std::vector<std::vector<pdcs::Candidate>> per_task(s.num_devices());
  std::size_t shard_sum = 0;
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    shard_sum +=
        extract_shard(s, plan, k, pdcs::ExtractOptions{}, 0, per_task)
            .peak_bytes;
  }
  EXPECT_EQ(stats.pool_bytes, shard_sum);
}

// Kept apart from StatsAccounting so the in-process part also runs where
// fork is excluded (the TSan job filters out ShardRunner.Forked*).
TEST(ShardRunner, ForkedStatsAccountingMatchesInProcess) {
  // Size-based accounting does not depend on the process mode.
  const auto s = spread_scenario(42, 24, true, false);
  RunnerStats in_process, forked;
  sharded(s, 4, 0, nullptr, &in_process);
  sharded(s, 4, 2, nullptr, &forked);
  EXPECT_EQ(forked.rows, in_process.rows);
  EXPECT_EQ(forked.peak_shard_bytes, in_process.peak_shard_bytes);
  EXPECT_EQ(forked.pool_bytes, in_process.pool_bytes);
}

// Workers count in their own registries, so the shard counters are bumped
// in the parent from the collected stats: both modes report the same.
TEST(ShardRunner, ForkedCountersMatchInProcess) {
  const auto s = spread_scenario(44, 24, true, false);
  const auto counters = [&](std::size_t procs) {
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    sharded(s, 4, procs);
    obs::set_metrics_enabled(false);
    return std::vector<std::uint64_t>{obs::counter("shard.tasks").value(),
                                      obs::counter("shard.rows").value()};
  };
  const auto in_process = counters(0);
  const auto forked = counters(2);
  obs::reset_metrics();
  EXPECT_EQ(in_process[0], s.num_devices());
  EXPECT_GT(in_process[1], 0u);
  EXPECT_EQ(forked, in_process);
}

TEST(ShardRunner, ForkedWorkersOverCeilingAreReaped) {
  const auto s = spread_scenario(46, 24, true, false);
  RunnerOptions opt;
  opt.shards = 4;
  opt.processes = 2;
  opt.mem_ceiling_bytes = 1;
  EXPECT_THROW(extract_sharded(s, opt), ConfigError);
  // Every forked child was waited for: none is left to reap.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ShardRunner, MalformedWorkerRowsAreRejected) {
  const auto s = spread_scenario(47, 24, true, false);
  const ShardPlan plan(s, {.shards = 4});
  ASSERT_GE(plan.shard(0).owned.size(), 1u);
  ASSERT_GE(s.num_devices(), 3u);
  const std::string task = std::to_string(plan.shard(0).owned.front());
  const std::string n = std::to_string(s.num_devices());
  const auto decode = [&](const std::string& rows) {
    std::vector<std::vector<pdcs::Candidate>> per_task(s.num_devices());
    decode_rows(serve::parse_json(rows), 0, s, plan, per_task);
    return per_task;
  };

  // A well-formed row lands in its task's slot.
  const auto ok =
      decode("[[" + task + ", 0, 1.5, 2.5, 0.25, [0, 2], [0.5, 0.75]]]");
  ASSERT_EQ(ok[plan.shard(0).owned.front()].size(), 1u);
  EXPECT_EQ(ok[plan.shard(0).owned.front()][0].covered,
            (std::vector<std::size_t>{0, 2}));

  std::string foreign;
  for (std::size_t k = 1; k < plan.num_shards() && foreign.empty(); ++k) {
    if (!plan.shard(k).owned.empty()) {
      foreign = std::to_string(plan.shard(k).owned.front());
    }
  }
  ASSERT_FALSE(foreign.empty());

  const std::vector<std::string> malformed = {
      "[[" + task + ", 0, 1, 2, 0, [0], [0.5, 0.5]]]",     // length mismatch
      "[[" + task + ", 0, 1, 2, 0, [0]]]",                 // short row
      "[[-1, 0, 1, 2, 0, [], []]]",                        // negative task
      "[[" + n + ", 0, 1, 2, 0, [], []]]",                 // task >= n
      "[[1e300, 0, 1, 2, 0, [], []]]",                     // huge task
      "[[0.5, 0, 1, 2, 0, [], []]]",                       // fractional task
      "[[" + foreign + ", 0, 1, 2, 0, [], []]]",           // not owned
      "[[" + task + ", 1, 1, 2, 0, [], []]]",              // type >= types
      "[[" + task + ", -0.5, 1, 2, 0, [], []]]",           // negative type
      "[[" + task + ", \"0\", 1, 2, 0, [], []]]",          // string type
      "[[" + task + ", 0, 1, 2, 0, [" + n + "], [0.5]]]",  // covered >= n
      "[[" + task + ", 0, 1, 2, 0, [-1], [0.5]]]",         // negative id
      "[[" + task + ", 0, 1, 2, 0, [1.5], [0.5]]]",        // fractional id
      "[[" + task + ", 0, 1, 2, 0, [2, 1], [0.5, 0.5]]]",  // descending
      "[[" + task + ", 0, 1, 2, 0, [1, 1], [0.5, 0.5]]]",  // duplicate
  };
  for (const std::string& rows : malformed) {
    SCOPED_TRACE(rows);
    EXPECT_THROW(decode(rows), ConfigError);
  }

  // The wire parser already refuses non-finite literals; the decoder checks
  // powers itself too.
  serve::Json bad = serve::parse_json("[" + task + ", 0, 1, 2, 0, [1]]");
  serve::Json powers = serve::Json::array();
  powers.push(serve::Json::number(std::numeric_limits<double>::infinity()));
  bad.push(std::move(powers));
  serve::Json rows = serve::Json::array();
  rows.push(std::move(bad));
  std::vector<std::vector<pdcs::Candidate>> per_task(s.num_devices());
  EXPECT_THROW(decode_rows(rows, 0, s, plan, per_task), ConfigError);
}

TEST(ShardRunner, PlacementsBitIdenticalAcrossShardCounts) {
  const auto s = spread_scenario(43, 30, true, true);
  const auto base = pdcs::extract_all(s);
  const auto base_sel = opt::select_strategies(s, base.candidates);
  parallel::ThreadPool pool(4);
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr),
                                    &pool}) {
      SCOPED_TRACE(shards);
      const auto ext = sharded(s, shards, 0, p);
      const auto sel = opt::select_strategies(s, ext.candidates,
                                              opt::GreedyMode::kPerType,
                                              opt::ObjectiveKind::kUtility, p);
      ASSERT_EQ(base_sel.placement.size(), sel.placement.size());
      for (std::size_t i = 0; i < sel.placement.size(); ++i) {
        EXPECT_EQ(base_sel.placement[i].pos.x, sel.placement[i].pos.x);
        EXPECT_EQ(base_sel.placement[i].pos.y, sel.placement[i].pos.y);
        EXPECT_EQ(base_sel.placement[i].orientation,
                  sel.placement[i].orientation);
        EXPECT_EQ(base_sel.placement[i].type, sel.placement[i].type);
      }
      EXPECT_EQ(base_sel.approx_utility, sel.approx_utility);
      EXPECT_EQ(base_sel.exact_utility, sel.exact_utility);
    }
  }
}

TEST(CoverageMatrixBuilder, WarmGreedyMatchesSpanGreedy) {
  const auto s = spread_scenario(45, 24, true, false);
  const auto ext = sharded(s, 4);
  const opt::CoverageMatrix warm(
      std::span<const pdcs::Candidate>(ext.candidates), s.num_devices());
  const auto span_sel = opt::select_strategies(s, ext.candidates);
  const auto warm_sel = opt::select_strategies(s, warm);
  EXPECT_EQ(span_sel.selected, warm_sel.selected);
  EXPECT_EQ(span_sel.approx_utility, warm_sel.approx_utility);
  EXPECT_EQ(span_sel.exact_utility, warm_sel.exact_utility);
}

}  // namespace
}  // namespace hipo::shard
