#include "src/pdcs/point_case.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/geometry/angles.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::pdcs {
namespace {

using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

std::vector<std::size_t> all_devices(const model::Scenario& s) {
  std::vector<std::size_t> v(s.num_devices());
  for (std::size_t j = 0; j < v.size(); ++j) v[j] = j;
  return v;
}

TEST(OrientableCovers, FiltersByDistanceAndReceiver) {
  auto cfg = test::simple_config();
  cfg.device_types = {{kPi / 2.0}};
  cfg.devices = {
      test::device_at(10, 10, 0.0),   // faces east → charger east covers it
      test::device_at(10, 14, 0.0),   // charger at (13,10) is ~SE of it
      test::device_at(18, 10, kPi),   // too far from (13,10)? d=5 exactly
  };
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cov = orientable_covers(s, 0, {13.0, 10.0}, pool);
  // Device 0: east of it, in its sector, d=3 → coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 0u) != cov.end());
  // Device 1 at (10,14): bearing from device to charger ≈ -53° off east;
  // its receiving half-angle is 45° → not coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 1u) == cov.end());
  // Device 2 at (18,10) faces west, charger at d=5 (boundary) → coverable.
  EXPECT_TRUE(std::find(cov.begin(), cov.end(), 2u) != cov.end());
}

TEST(PointCase, InfeasiblePositionYieldsNothing) {
  const auto s = test::blocked_scenario();
  const auto pool = all_devices(s);
  // Inside the obstacle.
  EXPECT_TRUE(extract_point_case(s, 0, {11.5, 10.0}, pool).empty());
  // Outside the region.
  EXPECT_TRUE(extract_point_case(s, 0, {50.0, 50.0}, pool).empty());
}

TEST(PointCase, SingleDeviceSingleCandidate) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {13.0, 10.0}, pool);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].covered, (std::vector<std::size_t>{0}));
  EXPECT_GT(cands[0].powers[0], 0.0);
  // The strategy actually covers the device under the exact model.
  EXPECT_TRUE(s.covers(cands[0].strategy, 0));
}

TEST(PointCase, ToyRotationalSweep) {
  // Six devices arranged around the origin point, charger angle π/2:
  // the sweep should find maximal groups, none dominated.
  auto cfg = test::simple_config();
  cfg.region.lo = {-10, -10};
  cfg.region.hi = {10, 10};
  const double r = 3.0;
  for (int k = 0; k < 6; ++k) {
    const double a = kTwoPi * k / 6.0;
    cfg.devices.push_back(
        test::device_at(r * std::cos(a), r * std::sin(a)));
  }
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {0.0, 0.0}, pool);
  ASSERT_FALSE(cands.empty());
  // π/2 sector over devices spaced 60° apart covers at most 2 consecutive.
  for (const auto& c : cands) {
    EXPECT_LE(c.covered.size(), 2u);
    EXPECT_GE(c.covered.size(), 1u);
    for (std::size_t idx = 0; idx < c.covered.size(); ++idx) {
      EXPECT_TRUE(s.covers(c.strategy, c.covered[idx]));
      EXPECT_NEAR(c.powers[idx], s.approx_power(c.strategy, c.covered[idx]),
                  1e-12);
    }
  }
  // All six devices appear in some candidate.
  std::vector<bool> seen(6, false);
  for (const auto& c : cands)
    for (std::size_t j : c.covered) seen[j] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(PointCase, SweepEmitsEveryCoveredSetAndExtractKeepsTheMaximal) {
  // Charger angle π/2 at the origin, devices at bearings 0°, 60° and 180°:
  // the candidate orientations 45°, 105° and 225° cover {0, 1}, {1} and
  // {2}. The sweep emits all three in orientation order; the public point
  // case keeps the two maximal sets, larger first.
  auto cfg = test::simple_config();
  cfg.region.lo = {-10, -10};
  cfg.region.hi = {10, 10};
  cfg.devices = {test::device_at(3, 0),
                 test::device_at(3 * std::cos(kPi / 3), 3 * std::sin(kPi / 3)),
                 test::device_at(-3, 0)};
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  PointSweep sweep;
  ASSERT_EQ(sweep.gather(s, 0, {0.0, 0.0}, pool), 3u);
  RowArena rows;
  EXPECT_EQ(sweep.sweep(rows), 3u);
  ASSERT_EQ(rows.size(), 3u);
  using Ids = std::vector<std::size_t>;
  EXPECT_EQ(rows.materialize(0).covered, (Ids{0, 1}));
  EXPECT_EQ(rows.materialize(1).covered, (Ids{1}));
  EXPECT_EQ(rows.materialize(2).covered, (Ids{2}));
  EXPECT_LT(rows.materialize(0).strategy.orientation,
            rows.materialize(1).strategy.orientation);

  const auto cands = extract_point_case(s, 0, {0.0, 0.0}, pool);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].covered, (Ids{0, 1}));
  EXPECT_EQ(cands[1].covered, (Ids{2}));
}

TEST(PointCase, FullCircleChargerSingleOrientation) {
  auto cfg = test::simple_config();
  cfg.charger_types[0].angle = kTwoPi;
  cfg.devices = {test::device_at(10, 13), test::device_at(13, 10),
                 test::device_at(7, 10)};
  const model::Scenario s(std::move(cfg));
  const auto pool = all_devices(s);
  const auto cands = extract_point_case(s, 0, {10.0, 10.0}, pool);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].covered.size(), 3u);
}

// Property: on random scenarios and random feasible points, every candidate
// is sound (covers what it claims with the claimed approx power), none is
// dominated by a sibling, and the union of maximal sets covers exactly the
// orientable-coverable devices.
class PointCasePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PointCasePropertyTest, SoundMaximalAndComplete) {
  const auto s = test::small_paper_scenario(
      static_cast<std::uint64_t>(GetParam()) + 900, 2, 1);
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 9);
  const auto pool = all_devices(s);
  int tested = 0;
  for (int trial = 0; trial < 200 && tested < 40; ++trial) {
    const Vec2 pos{rng.uniform(0, 40), rng.uniform(0, 40)};
    const std::size_t q = rng.below(s.num_charger_types());
    const auto cands = extract_point_case(s, q, pos, pool);
    if (cands.empty()) continue;
    ++tested;

    std::vector<bool> covered_any(s.num_devices(), false);
    for (const auto& c : cands) {
      EXPECT_EQ(c.strategy.pos, pos);
      EXPECT_EQ(c.strategy.type, q);
      for (std::size_t k = 0; k < c.covered.size(); ++k) {
        EXPECT_GT(c.powers[k], 0.0);
        EXPECT_NEAR(c.powers[k], s.approx_power(c.strategy, c.covered[k]),
                    1e-12);
        covered_any[c.covered[k]] = true;
      }
      for (const auto& other : cands) {
        if (&other == &c) continue;
        EXPECT_FALSE(dominated_by(c, other) && !dominated_by(other, c));
      }
    }
    // Completeness: every orientable-coverable device shows up somewhere.
    for (std::size_t j : orientable_covers(s, q, pos, pool)) {
      EXPECT_TRUE(covered_any[j]) << "device " << j << " missing at " << pos;
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(Random, PointCasePropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace hipo::pdcs
