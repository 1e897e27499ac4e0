#include "src/ext/radiation.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/opt/greedy.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/error.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::ext {
namespace {

TEST(RadiationModel, FromScenarioPicksStrongestCoupling) {
  const auto s = test::small_paper_scenario(601, 1, 1);
  const auto m = RadiationModel::from_scenario(s);
  ASSERT_EQ(m.emission.size(), s.num_charger_types());
  for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
    double strongest = 0.0;
    for (std::size_t t = 0; t < s.num_device_types(); ++t) {
      strongest = std::max(strongest, s.pair_params(q, t).a);
    }
    EXPECT_DOUBLE_EQ(m.emission[q].a, strongest);
  }
}

TEST(RadiationModel, GatesLikeChargerSide) {
  const auto s = test::simple_scenario();
  const auto m = RadiationModel::from_scenario(s);
  const model::Strategy charger{{10.0, 10.0}, 0.0, 0};  // faces east
  // In front, in range: positive radiation.
  EXPECT_GT(m.radiation_from(s, charger, {13.0, 10.0}), 0.0);
  // Behind: zero.
  EXPECT_DOUBLE_EQ(m.radiation_from(s, charger, {7.0, 10.0}), 0.0);
  // Too close / too far: zero.
  EXPECT_DOUBLE_EQ(m.radiation_from(s, charger, {10.5, 10.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.radiation_from(s, charger, {16.0, 10.0}), 0.0);
}

TEST(RadiationModel, BlockedByObstacle) {
  const auto s = test::blocked_scenario();  // rect (11,9.5)-(12,10.5)
  const auto m = RadiationModel::from_scenario(s);
  const model::Strategy charger{{9.0, 10.0}, 0.0, 0};
  EXPECT_DOUBLE_EQ(m.radiation_from(s, charger, {13.0, 10.0}), 0.0);
  EXPECT_GT(m.radiation_from(s, charger, {10.5, 10.0}), 0.0);
}

TEST(RadiationProbes, ExcludeObstaclesIncludeDevices) {
  const auto s = test::blocked_scenario();
  RadiationModel m = RadiationModel::from_scenario(s);
  m.grid_nx = 40;
  m.grid_ny = 40;
  const auto probes = radiation_probes(s, m);
  EXPECT_GT(probes.size(), 100u);
  for (const auto& p : probes) {
    for (const auto& h : s.obstacles()) {
      // Device positions may sit on a boundary, never interior.
      EXPECT_FALSE(h.contains_interior(p));
    }
  }
  // The device position itself is a probe.
  bool has_device = false;
  for (const auto& p : probes) {
    if (geom::approx_equal(p, s.device(0).pos)) has_device = true;
  }
  EXPECT_TRUE(has_device);
}

TEST(MaxRadiation, EmptyPlacementZero) {
  const auto s = test::simple_scenario();
  const auto m = RadiationModel::from_scenario(s);
  EXPECT_DOUBLE_EQ(max_radiation(s, {}, m), 0.0);
}

TEST(MaxRadiation, AdditiveAcrossChargers) {
  const auto s = test::simple_scenario();
  const auto m = RadiationModel::from_scenario(s);
  const model::Placement one{{{13.0, 10.0}, geom::kPi, 0}};
  const model::Placement two{{{13.0, 10.0}, geom::kPi, 0},
                             {{7.0, 10.0}, 0.0, 0}};
  // Both chargers irradiate the overlap around (10, 10): the peak of the
  // pair is at least the single charger's peak.
  EXPECT_GE(max_radiation(s, two, m), max_radiation(s, one, m) - 1e-12);
}

class SafeSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::make_unique<model::Scenario>(
        test::small_paper_scenario(602, 1, 1));
    extraction_ = pdcs::extract_all(*scenario_);
    ASSERT_FALSE(extraction_.candidates.empty());
    model_ = RadiationModel::from_scenario(*scenario_);
    model_.grid_nx = 16;
    model_.grid_ny = 16;
  }

  std::unique_ptr<model::Scenario> scenario_;
  pdcs::ExtractionResult extraction_;
  RadiationModel model_;
};

TEST_F(SafeSelectTest, ZeroThresholdSelectsNothing) {
  const auto r = select_radiation_safe(*scenario_, extraction_.candidates,
                                       model_, 0.0);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.peak_radiation, 0.0);
}

TEST_F(SafeSelectTest, CapRespectedOnProbes) {
  for (double threshold : {0.02, 0.05, 0.1}) {
    const auto r = select_radiation_safe(*scenario_, extraction_.candidates,
                                         model_, threshold);
    EXPECT_LE(r.peak_radiation, threshold + 1e-9) << "Rt=" << threshold;
    scenario_->validate_placement(r.placement);
  }
}

TEST_F(SafeSelectTest, UtilityMonotoneInThreshold) {
  double prev = -1.0;
  for (double threshold : {0.01, 0.03, 0.06, 0.2, 1e9}) {
    const auto r = select_radiation_safe(*scenario_, extraction_.candidates,
                                         model_, threshold);
    EXPECT_GE(r.approx_utility, prev - 1e-9);
    prev = r.approx_utility;
  }
}

TEST_F(SafeSelectTest, UnlimitedThresholdMatchesPlainGreedy) {
  const auto safe = select_radiation_safe(*scenario_, extraction_.candidates,
                                          model_, 1e12);
  const auto plain = opt::select_strategies(
      *scenario_, extraction_.candidates, opt::GreedyMode::kLazyGlobal);
  EXPECT_NEAR(safe.approx_utility, plain.approx_utility, 1e-9);
}

TEST_F(SafeSelectTest, NegativeThresholdThrows) {
  EXPECT_THROW(select_radiation_safe(*scenario_, extraction_.candidates,
                                     model_, -0.1),
               hipo::ConfigError);
}

}  // namespace
}  // namespace hipo::ext
