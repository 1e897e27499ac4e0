// LosCache: memoized physics must be bit-identical to Scenario's, with the
// memo actually firing on repeated (position, device) queries.
#include "src/model/los_cache.hpp"

#include <gtest/gtest.h>

#include "src/model/scenario_gen.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/spatial/grid_index.hpp"
#include "src/util/rng.hpp"

namespace hipo::model {
namespace {

using geom::Vec2;

Scenario paper_scenario(int num_obstacles, std::uint64_t seed) {
  GenOptions gen;
  gen.num_obstacles = num_obstacles;
  hipo::Rng rng(seed);
  return make_paper_scenario(gen, rng);
}

TEST(LosCache, MatchesScenarioPhysics) {
  const auto scenario = paper_scenario(8, 101);
  LosCache cache(scenario);
  hipo::Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    Strategy s;
    s.pos = {rng.uniform(0, 40), rng.uniform(0, 40)};
    s.orientation = rng.uniform(0, geom::kTwoPi);
    s.type = static_cast<std::size_t>(
        rng.uniform(0, static_cast<double>(scenario.num_charger_types())));
    if (s.type >= scenario.num_charger_types()) {
      s.type = scenario.num_charger_types() - 1;
    }
    const auto j = static_cast<std::size_t>(trial) % scenario.num_devices();
    EXPECT_EQ(cache.line_of_sight(s.pos, j),
              scenario.line_of_sight(s.pos, scenario.device(j).pos));
    EXPECT_EQ(cache.covers(s, j), scenario.covers(s, j));
    EXPECT_EQ(cache.exact_power(s, j), scenario.exact_power(s, j));
    EXPECT_EQ(cache.approx_power(s, j), scenario.approx_power(s, j));
  }
}

TEST(LosCache, HitsOnRepeatedPositions) {
  const auto scenario = paper_scenario(2, 7);
  LosCache cache(scenario);
  const Vec2 p{12.5, 17.25};
  const bool first = cache.line_of_sight(p, 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(cache.line_of_sight(p, 0), first);
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 5u);
  EXPECT_EQ(cache.size(), 1u);
  // A position differing in the last bit is a distinct key.
  Vec2 p2 = p;
  p2.x = std::nextafter(p2.x, 100.0);
  cache.line_of_sight(p2, 0);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LosCache, PlacementUtilityMatchesScenario) {
  const auto scenario = paper_scenario(8, 13);
  hipo::Rng rng(99);
  std::vector<Strategy> placement;
  for (int k = 0; k < 12; ++k) {
    Strategy s;
    s.pos = {rng.uniform(0, 40), rng.uniform(0, 40)};
    s.orientation = rng.uniform(0, geom::kTwoPi);
    s.type = static_cast<std::size_t>(k) % scenario.num_charger_types();
    placement.push_back(s);
    // Duplicate some positions with different orientations — the cache's
    // sweet spot; results must still be bit-identical.
    if (k % 3 == 0) {
      Strategy dup = s;
      dup.orientation = rng.uniform(0, geom::kTwoPi);
      placement.push_back(dup);
    }
  }
  LosCache cache(scenario);
  EXPECT_EQ(cache.placement_utility(placement),
            scenario.placement_utility(placement));
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    LosCache fresh(scenario);
    double total = 0.0;
    for (const auto& s : placement) total += fresh.exact_power(s, j);
    EXPECT_EQ(total, scenario.total_exact_power(placement, j));
  }
}

TEST(LosCache, VerdictsSurviveTableGrowth) {
  // Far more keys than the table's initial slots: every verdict must still
  // come back, and every repeat must be a hit.
  const auto scenario = paper_scenario(8, 77);
  LosCache cache(scenario);
  hipo::Rng rng(23);
  std::vector<Vec2> positions;
  for (int k = 0; k < 300; ++k) {
    positions.push_back({rng.uniform(0, 40), rng.uniform(0, 40)});
  }
  const std::size_t n = scenario.num_devices();
  for (const Vec2& p : positions) {
    for (std::size_t j = 0; j < n; ++j) cache.line_of_sight(p, j);
  }
  const std::size_t keys = positions.size() * n;
  EXPECT_EQ(cache.size(), keys);
  EXPECT_EQ(cache.misses(), keys);
  EXPECT_EQ(cache.hits(), 0u);
  for (const Vec2& p : positions) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(cache.line_of_sight(p, j),
                scenario.line_of_sight(p, scenario.device(j).pos));
    }
  }
  EXPECT_EQ(cache.size(), keys);
  EXPECT_EQ(cache.misses(), keys);
  EXPECT_EQ(cache.hits(), keys);
}

TEST(LosCache, SignedZerosAreDistinctKeys) {
  const auto scenario = paper_scenario(2, 7);
  LosCache cache(scenario);
  cache.line_of_sight({0.0, 5.0}, 0);
  cache.line_of_sight({-0.0, 5.0}, 0);
  cache.line_of_sight({0.0, -0.0}, 0);
  cache.line_of_sight({0.0, 0.0}, 0);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 4u);
  cache.line_of_sight({-0.0, 5.0}, 0);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(LosCache, PointCaseExtractionUnchangedByCache) {
  const auto scenario = paper_scenario(8, 21);
  std::vector<Vec2> points;
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    points.push_back(scenario.device(j).pos);
  }
  const spatial::GridIndex devices(scenario.region(), std::move(points));
  hipo::Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const Vec2 p{rng.uniform(0, 40), rng.uniform(0, 40)};
    for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
      const auto pool = devices.query_radius(
          p, scenario.charger_type(q).d_max + geom::kCoverEps);
      LosCache cache(scenario);
      const auto with = pdcs::extract_point_case(scenario, q, p, pool, &cache);
      const auto without = pdcs::extract_point_case(scenario, q, p, pool);
      ASSERT_EQ(with.size(), without.size());
      for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_EQ(with[i].strategy.orientation, without[i].strategy.orientation);
        EXPECT_EQ(with[i].covered, without[i].covered);
        EXPECT_EQ(with[i].powers, without[i].powers);
      }
    }
  }
}

}  // namespace
}  // namespace hipo::model
