#include "src/model/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/geometry/angles.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::model {
namespace {

using geom::kCoverEps;
using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

TEST(ScenarioConfig, ValidatesTables) {
  auto cfg = test::simple_config();
  cfg.pair_params.clear();
  EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError);

  cfg = test::simple_config();
  cfg.charger_counts = {1, 2};
  EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError);

  cfg = test::simple_config();
  cfg.charger_types[0].d_min = 7.0;  // > d_max
  EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError);
}

TEST(ScenarioConfig, RejectsDeviceInsideObstacle) {
  auto cfg = test::simple_config();
  cfg.obstacles = {geom::make_rect({9, 9}, {11, 11})};
  cfg.devices = {test::device_at(10, 10)};
  EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError);
}

TEST(ScenarioConfig, RejectsDeviceOutsideRegion) {
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(25, 10)};
  EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError);
}

TEST(ScenarioConfig, RejectsNonFiniteFieldsAndNonSimpleObstacles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto base = [] {
    auto cfg = test::simple_config();
    cfg.devices = {test::device_at(10, 10)};
    return cfg;
  };
  EXPECT_NO_THROW(Scenario{base()});
  const auto expect_rejects = [&](const char* what, auto mutate) {
    auto cfg = base();
    mutate(cfg);
    EXPECT_THROW(Scenario(std::move(cfg)), hipo::ConfigError) << what;
  };
  expect_rejects("NaN orientation",
                 [&](Scenario::Config& c) { c.devices[0].orientation = nan; });
  expect_rejects("+inf orientation",
                 [&](Scenario::Config& c) { c.devices[0].orientation = inf; });
  expect_rejects("-inf orientation", [&](Scenario::Config& c) {
    c.devices[0].orientation = -inf;
  });
  expect_rejects("inf p_th",
                 [&](Scenario::Config& c) { c.devices[0].p_th = inf; });
  expect_rejects("inf weight",
                 [&](Scenario::Config& c) { c.devices[0].weight = inf; });
  // The infinite vertex leaves the shoelace area +inf, so the polygon
  // itself constructs; only the scenario can reject it.
  expect_rejects("non-finite obstacle vertex", [&](Scenario::Config& c) {
    c.obstacles = {geom::Polygon({{0, -1}, {inf, 0}, {0, 1}})};
  });
  // Asymmetric bow-tie: nonzero area, edges 0 and 2 cross.
  expect_rejects("bow-tie obstacle", [&](Scenario::Config& c) {
    c.obstacles = {geom::Polygon({{1, 1}, {4, 2}, {3, 1}, {1, 3}})};
  });
}

TEST(Scenario, NumChargers) {
  const auto s = test::simple_scenario();
  EXPECT_EQ(s.num_chargers(), 2u);
  EXPECT_EQ(s.num_charger_types(), 1u);
  EXPECT_EQ(s.num_devices(), 3u);
}

TEST(Scenario, PowerDistanceGates) {
  const auto s = test::simple_scenario();
  // Device 0 at (10,10); charger type: d ∈ [1, 5], α = π/2.
  const Strategy too_close{{10.5, 10.0}, kPi, 0};  // d = 0.5 < 1
  EXPECT_DOUBLE_EQ(s.exact_power(too_close, 0), 0.0);
  const Strategy too_far{{16.0, 10.0}, kPi, 0};  // d = 6 > 5
  EXPECT_DOUBLE_EQ(s.exact_power(too_far, 0), 0.0);
  const Strategy in_range{{13.0, 10.0}, kPi, 0};  // d = 3, facing device
  EXPECT_NEAR(s.exact_power(in_range, 0), 100.0 / (43.0 * 43.0), 1e-12);
}

TEST(Scenario, PowerChargerAngleGate) {
  const auto s = test::simple_scenario();
  // Charger east of device, facing AWAY (east): device outside sector.
  const Strategy facing_away{{13.0, 10.0}, 0.0, 0};
  EXPECT_DOUBLE_EQ(s.exact_power(facing_away, 0), 0.0);
  // Facing at the sector half-angle boundary (π ± π/4): still covered.
  const Strategy boundary{{13.0, 10.0}, kPi - kPi / 4.0 + 1e-9, 0};
  EXPECT_GT(s.exact_power(boundary, 0), 0.0);
}

TEST(Scenario, PowerDeviceAngleGate) {
  auto cfg = test::simple_config();
  cfg.device_types = {{kPi / 2.0}};  // narrow receiver
  cfg.devices = {test::device_at(10, 10, /*orientation=*/0.0)};
  const Scenario s(std::move(cfg));
  // Charger east of device (within receiving sector pointing east): covered.
  const Strategy east{{13.0, 10.0}, kPi, 0};
  EXPECT_GT(s.exact_power(east, 0), 0.0);
  // Charger west of device: outside the π/2 receiving sector.
  const Strategy west{{7.0, 10.0}, 0.0, 0};
  EXPECT_DOUBLE_EQ(s.exact_power(west, 0), 0.0);
}

TEST(Scenario, PowerBlockedByObstacle) {
  const auto s = test::blocked_scenario();
  // Charger east of the obstacle: line of sight crosses the rect.
  const Strategy blocked{{13.0, 10.0}, kPi, 0};
  EXPECT_DOUBLE_EQ(s.exact_power(blocked, 0), 0.0);
  EXPECT_FALSE(s.covers(blocked, 0));
  // Charger north: clear.
  const Strategy clear{{10.0, 13.0}, -kPi / 2.0, 0};
  EXPECT_GT(s.exact_power(clear, 0), 0.0);
}

TEST(Scenario, LineOfSight) {
  const auto s = test::blocked_scenario();
  EXPECT_FALSE(s.line_of_sight({10, 10}, {13, 10}));
  EXPECT_TRUE(s.line_of_sight({10, 10}, {10, 13}));
}

TEST(Scenario, PositionFeasible) {
  const auto s = test::blocked_scenario();
  EXPECT_TRUE(s.position_feasible({5, 5}));
  EXPECT_FALSE(s.position_feasible({11.5, 10.0}));  // inside obstacle
  EXPECT_FALSE(s.position_feasible({11.0, 10.0}));  // on obstacle boundary
  EXPECT_FALSE(s.position_feasible({25, 5}));       // outside region
}

TEST(Scenario, AdditivePower) {
  const auto s = test::simple_scenario();
  const Strategy a{{13.0, 10.0}, kPi, 0};
  const Strategy b{{7.0, 10.0}, 0.0, 0};
  const Placement both{a, b};
  EXPECT_NEAR(s.total_exact_power(both, 0),
              s.exact_power(a, 0) + s.exact_power(b, 0), 1e-12);
}

TEST(Scenario, UtilitySaturation) {
  const auto s = test::simple_scenario();
  EXPECT_DOUBLE_EQ(s.utility(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.utility(0, 0.025), 0.5);
  EXPECT_DOUBLE_EQ(s.utility(0, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(s.utility(0, 0.5), 1.0);
}

TEST(Scenario, PlacementUtilityNormalized) {
  const auto s = test::simple_scenario();
  const Placement p{Strategy{{13.0, 10.0}, kPi, 0}};
  const auto per_dev = s.per_device_utility(p);
  ASSERT_EQ(per_dev.size(), 3u);
  double sum = 0.0;
  for (double u : per_dev) sum += u;
  EXPECT_NEAR(s.placement_utility(p), sum / 3.0, 1e-12);
}

TEST(Scenario, ApproxPowerMatchesRingGating) {
  const auto s = test::simple_scenario();
  const Strategy strat{{13.0, 10.0}, kPi, 0};
  const auto& lad = s.ladder(0, 0);
  EXPECT_NEAR(s.approx_power(strat, 0), lad.approx_power(3.0), 1e-12);
  // Blocked / out-of-range strategies approximate to zero too.
  const Strategy far{{16.0, 10.0}, kPi, 0};
  EXPECT_DOUBLE_EQ(s.approx_power(far, 0), 0.0);
}

// Lemma 4.2 property: 1 <= P/P̃ <= 1+ε₁ whenever P > 0, for random
// strategies on a random scenario.
class Lemma42Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma42Test, ApproxRatioWithinEps1) {
  const auto s = test::small_paper_scenario(
      static_cast<std::uint64_t>(GetParam()) + 100);
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  int checked = 0;
  for (int i = 0; i < 3000 && checked < 200; ++i) {
    const Strategy strat{
        {rng.uniform(0, 40), rng.uniform(0, 40)},
        rng.angle(),
        rng.below(s.num_charger_types())};
    for (std::size_t j = 0; j < s.num_devices(); ++j) {
      const double exact = s.exact_power(strat, j);
      const double approx = s.approx_power(strat, j);
      if (exact <= 0.0) {
        EXPECT_DOUBLE_EQ(approx, 0.0);
        continue;
      }
      ++checked;
      ASSERT_GT(approx, 0.0);
      const double ratio = exact / approx;
      EXPECT_GE(ratio, 1.0 - 1e-6);
      EXPECT_LE(ratio, 1.0 + s.eps1() + 1e-6);
    }
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Random, Lemma42Test, ::testing::Range(0, 8));

TEST(Scenario, ValidatePlacementBudget) {
  const auto s = test::simple_scenario();
  Placement ok{Strategy{{5, 5}, 0.0, 0}, Strategy{{6, 6}, 0.0, 0}};
  EXPECT_NO_THROW(s.validate_placement(ok));
  Placement over{Strategy{{5, 5}, 0.0, 0}, Strategy{{6, 6}, 0.0, 0},
                 Strategy{{7, 7}, 0.0, 0}};
  EXPECT_THROW(s.validate_placement(over), hipo::ConfigError);
}

TEST(Scenario, ValidatePlacementPosition) {
  const auto s = test::blocked_scenario();
  Placement bad{Strategy{{11.5, 10.0}, 0.0, 0}};
  EXPECT_THROW(s.validate_placement(bad), hipo::ConfigError);
}

TEST(Scenario, CoincidentChargerDeviceNotCovered) {
  auto cfg = test::simple_config();
  cfg.charger_types[0].d_min = 0.0;
  cfg.devices = {test::device_at(10, 10)};
  const Scenario s(std::move(cfg));
  const Strategy on_top{{10.0, 10.0}, 0.0, 0};
  EXPECT_DOUBLE_EQ(s.exact_power(on_top, 0), 0.0);
}

// --- exact evaluation against a literal per-device reference -------------
//
// The reference is Eq. (2)/(3) spelled out: every (device, strategy) pair
// through Scenario::exact_power, summed per device in placement order. The
// charger-major kernel (exact_powers) and everything folded from it must
// match it bit for bit.

std::vector<double> reference_powers(const Scenario& s,
                                     std::span<const Strategy> placement) {
  std::vector<double> out(s.num_devices());
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    double total = 0.0;
    for (const auto& st : placement) total += s.exact_power(st, j);
    out[j] = total;
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(bits(got[j]), bits(want[j]))
        << what << " device " << j << ": " << got[j] << " vs " << want[j];
  }
}

/// Checks all four exact-evaluation entry points against the reference;
/// returns how many devices receive power (so callers can assert the case
/// is not vacuous).
std::size_t expect_matches_reference(const Scenario& s,
                                     std::span<const Strategy> placement) {
  const std::vector<double> powers = reference_powers(s, placement);
  std::vector<double> utilities(s.num_devices());
  double weighted = 0.0;
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    utilities[j] = s.utility(j, powers[j]);
    weighted += s.device(j).weight * utilities[j];
  }
  const double utility =
      s.num_devices() == 0 ? 0.0 : weighted / s.total_weight();

  expect_same_bits(s.exact_powers(placement), powers, "exact_powers");
  expect_same_bits(s.per_device_power(placement), powers, "per_device_power");
  expect_same_bits(s.per_device_utility(placement), utilities,
                   "per_device_utility");
  EXPECT_EQ(bits(s.placement_utility(placement)), bits(utility))
      << s.placement_utility(placement) << " vs " << utility;

  std::size_t powered = 0;
  for (const double p : powers) powered += p != 0.0 ? 1 : 0;
  return powered;
}

/// Random strategies: half anywhere in (and a little beyond) the region,
/// half within charging range of a random device, so many pairs cover.
Placement random_strategies(const Scenario& s, Rng& rng, int count) {
  const geom::BBox& r = s.region();
  Placement out;
  for (int k = 0; k < count; ++k) {
    Strategy st;
    st.type = rng.below(s.num_charger_types());
    st.orientation = rng.angle();
    if (k % 2 == 0 || s.num_devices() == 0) {
      st.pos = {rng.uniform(r.lo.x - 3.0, r.hi.x + 3.0),
                rng.uniform(r.lo.y - 3.0, r.hi.y + 3.0)};
    } else {
      const Vec2 o = s.device(rng.below(s.num_devices())).pos;
      const double d = rng.uniform(0.0, s.charger_type(st.type).d_max);
      st.pos = o + geom::unit_vector(rng.angle()) * d;
      // Face the device half of the time.
      if (k % 4 == 1) st.orientation = (o - st.pos).angle();
    }
    out.push_back(st);
  }
  return out;
}

TEST(ExactPowersReference, SeededPaperCities) {
  for (int scale = 1; scale <= 4; ++scale) {
    for (const int obstacles : {0, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "s = " << scale << ", obstacles per patch " << obstacles);
      GenOptions gen;
      gen.region_scale = scale;
      gen.device_multiplier = 4 * scale * scale;
      gen.num_obstacles = obstacles;
      Rng rng(static_cast<std::uint64_t>(1000 * scale + obstacles));
      const Scenario s = make_paper_scenario(gen, rng);
      EXPECT_EQ(s.num_obstacles() > 0, obstacles > 0);
      for (const int count : {1, 18, 300}) {
        const Placement p = random_strategies(s, rng, count);
        const std::size_t powered = expect_matches_reference(s, p);
        if (count == 300) {
          EXPECT_GT(powered, 0u);
        }
      }
    }
  }
}

TEST(ExactPowersReference, FullCircleChargerAndDminZero) {
  auto cfg = test::simple_config();
  cfg.charger_types = {{kTwoPi, 0.0, 4.0}, {kPi / 3.0, 0.0, 5.0}};
  cfg.pair_params = {{100.0, 40.0}, {90.0, 35.0}, {80.0, 30.0}, {70.0, 25.0}};
  cfg.charger_counts = {2, 2};
  cfg.device_types = {{kTwoPi}, {kPi}};
  cfg.obstacles = {geom::make_rect({11.0, 11.5}, {12.5, 12.5})};
  Rng rng(17);
  for (int k = 0; k < 40; ++k) {
    Vec2 p{rng.uniform(2, 18), rng.uniform(2, 18)};
    while (cfg.obstacles[0].contains(p)) p = {rng.uniform(2, 18), 2.0};
    cfg.devices.push_back(test::device_at(p.x, p.y, rng.angle(),
                                          static_cast<std::size_t>(k % 2)));
  }
  const Scenario s(std::move(cfg));
  const Placement p = random_strategies(s, rng, 200);
  EXPECT_GT(expect_matches_reference(s, p), 0u);
}

TEST(ExactPowersReference, BoundaryPositions) {
  // Omni charger type 1 (α = 2π, d ∈ [0, 4]) next to the sector type 0
  // (α = π/2, d ∈ [1, 5]); devices on the region boundary and corner, one
  // a hair outside it (still inside the kEps tolerance).
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({kTwoPi, 0.0, 4.0});
  cfg.pair_params.push_back({90.0, 35.0});
  cfg.charger_counts = {4, 4};
  cfg.devices = {test::device_at(10, 10), test::device_at(0, 7),
                 test::device_at(20, 20), test::device_at(5, 0),
                 test::device_at(-5e-10, 3), test::device_at(10, 10.5)};
  const Scenario s(std::move(cfg));

  Placement p;
  // Sector chargers facing device 0 from exactly d_max, from
  // d_max + kCoverEps, and a few ulps either side of that gate.
  const double gate = 5.0 + kCoverEps;
  for (double d : {5.0, gate}) {
    p.push_back({{10.0 + d, 10.0}, kPi, 0});
    p.push_back({{10.0, 10.0 - d}, kPi / 2.0, 0});
  }
  double above = gate;
  double below = gate;
  for (int k = 0; k < 4; ++k) {
    above = std::nextafter(above, 100.0);
    below = std::nextafter(below, 0.0);
    p.push_back({{10.0 - above, 10.0}, 0.0, 0});
    p.push_back({{10.0 - below, 10.0}, 0.0, 0});
    p.push_back({{10.0, 10.0 + above}, -kPi / 2.0, 1});
  }
  // Sector chargers facing device 0 from positions that pass the gate,
  // hypot(dx, dy) <= 5 + kCoverEps, although dx² + dy² rounds above
  // (5 + kCoverEps)²: a grid query at the bare gate radius misses them.
  for (const Vec2 c : {Vec2{14.463204006172564, 12.2538436057733},
                       Vec2{8.2712812163105767, 14.691644953203447},
                       Vec2{8.2992452504822065, 5.2981456549577501}}) {
    p.push_back({c, (Vec2{10.0, 10.0} - c).angle(), 0});
  }
  // Omni charger exactly d_max = 4 away, diagonal (hypot, not axis).
  p.push_back({{10.0 + 4.0 / std::sqrt(2.0), 10.0 + 4.0 / std::sqrt(2.0)},
               0.0, 1});
  // On top of devices (coincident: never covers that device).
  p.push_back({{10.0, 10.0}, 0.0, 1});
  p.push_back({{0.0, 7.0}, 0.0, 0});
  // Outside the region, covering the boundary devices.
  p.push_back({{-3.0, 7.0}, 0.0, 0});
  p.push_back({{23.0, 23.0}, -3.0 * kPi / 4.0, 0});
  p.push_back({{5.0, -2.0}, 0.0, 1});
  p.push_back({{-2.0, 3.0}, 0.0, 1});
  // Far outside the region, up to non-finite.
  const double inf = std::numeric_limits<double>::infinity();
  p.push_back({{1e6, 1e6}, 0.0, 1});
  p.push_back({{-1e300, 5.0}, 0.0, 1});
  p.push_back({{inf, 5.0}, 0.0, 1});
  p.push_back({{5.0, -inf}, 0.0, 0});
  EXPECT_GE(expect_matches_reference(s, p), 4u);

  // One strategy at a time, so a gate disagreement cannot hide in a sum.
  for (const auto& st : p) {
    SCOPED_TRACE(::testing::Message() << st.pos.x << ", " << st.pos.y);
    expect_matches_reference(s, Placement{st});
  }

  // A NaN position satisfies no distance bound; it reaches every device
  // (NaN power), as in the per-device loop.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  p.push_back({{nan, 5.0}, 0.0, 1});
  expect_matches_reference(s, p);
}

TEST(ExactPowersReference, EmptyPlacementAndNoDevices) {
  const auto s = test::small_paper_scenario(5);
  EXPECT_EQ(expect_matches_reference(s, Placement{}), 0u);
  const Scenario empty(test::simple_config());
  Rng rng(3);
  expect_matches_reference(empty, random_strategies(empty, rng, 10));
  EXPECT_EQ(empty.placement_utility(Placement{}), 0.0);
}

TEST(Scenario, DeviceIndexCoversEveryDevice) {
  const auto s = test::small_paper_scenario(9, 2);
  const auto& index = s.device_index();
  ASSERT_EQ(index.size(), s.num_devices());
  const auto all = index.query_box(s.region());
  ASSERT_EQ(all.size(), s.num_devices());
  for (std::size_t j = 0; j < all.size(); ++j) EXPECT_EQ(all[j], j);
}

}  // namespace
}  // namespace hipo::model
