// The memo-free LosCache shim and extract_point_case's ignored LosCache*
// parameter: the surface the end-to-end benchmark (perfbench/) compiles
// against. Both must give exactly what the plain Scenario calls give.
#include "src/model/los_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/model/scenario_gen.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/point_case.hpp"
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
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double direct = scenario.placement_utility(placement);
  parallel::ThreadPool pool(2);
  EXPECT_EQ(bits(LosCache(scenario).placement_utility(placement, &pool)),
            bits(direct));
  EXPECT_EQ(bits(LosCache(scenario).placement_utility(placement)),
            bits(direct));
}

TEST(LosCache, PointCaseExtractionUnchangedByCache) {
  const auto scenario = paper_scenario(8, 21);
  const auto& devices = scenario.device_index();
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
        EXPECT_EQ(std::bit_cast<std::uint64_t>(with[i].strategy.orientation),
                  std::bit_cast<std::uint64_t>(
                      without[i].strategy.orientation));
        EXPECT_EQ(with[i].covered, without[i].covered);
        EXPECT_EQ(with[i].powers, without[i].powers);
      }
    }
  }
}

}  // namespace
}  // namespace hipo::model
