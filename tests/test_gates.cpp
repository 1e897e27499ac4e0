// geom::RingGate / ConeGate: every fast decision must equal the literal
// hypot / atan2 form of the gate it stands for, on inputs placed a few ulp
// around each boundary, on both sides of the cone's near-distance cut-off,
// and on NaN; and the band that defers to the literal form stays thin.
#include "src/geometry/gates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/geometry/angles.hpp"
#include "src/model/scenario.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::geom {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Tally of one predicate's decisions against its literal form.
struct Tally {
  int fast = 0;
  int exact = 0;

  void check(Gate gate, bool literal) {
    if (gate == Gate::kExact) {
      ++exact;
      return;
    }
    ++fast;
    EXPECT_EQ(gate == Gate::kPass, literal);
  }
};

/// Directions an offset vector is built along: the axes (exact lengths)
/// and a few rounded ones.
const std::vector<double>& directions() {
  static const std::vector<double> dirs = {0.0,  kPi / 2.0, kPi / 4.0, 1.0,
                                           2.5, -0.3,      3.0,       -2.0};
  return dirs;
}

/// Distances k ulp around `boundary`, k in [-4, 4], plus relative steps.
std::vector<double> around(double boundary) {
  std::vector<double> out;
  for (int k = -4; k <= 4; ++k) out.push_back(test::ulps(boundary, k));
  for (const double rel : {1e-13, 1e-12, 2e-12, 1e-9}) {
    out.push_back(boundary * (1.0 - rel));
    out.push_back(boundary * (1.0 + rel));
  }
  return out;
}

bool literal_reach(Vec2 p, Vec2 a, double reach) {
  return !(distance(p, a) > reach);
}

bool literal_range(Vec2 v, double d_min, double d_max) {
  const double d = v.norm();
  return !(d < d_min - kCoverEps || d > d_max + kCoverEps || d <= kEps);
}

bool literal_cone(Vec2 v, double half, double orientation) {
  const double d = v.norm();
  return !(angle_distance(v.angle(), orientation) >
           half + kCoverEps / std::max(d, 1e-12));
}

TEST(ReachGate, MatchesDistanceAroundTheBoundary) {
  Tally tally;
  const Vec2 a{3.25, -7.5};
  for (const double reach : {1e-3, 0.5, 5.0 + kCoverEps, 40.0, 1234.5}) {
    SCOPED_TRACE(reach);
    const RingGate gate = reach_gate(reach);
    for (const double t : around(reach)) {
      for (const double dir : directions()) {
        const Vec2 p = a + unit_vector(dir) * t;
        tally.check(gate(distance2(p, a)), literal_reach(p, a, reach));
      }
    }
    // Far inside, far outside and on the anchor: always fast.
    for (const double t : {0.0, 0.5 * reach, 2.0 * reach}) {
      const Vec2 p = a + unit_vector(1.0) * t;
      const Gate g = gate(distance2(p, a));
      EXPECT_NE(g, Gate::kExact) << t;
      tally.check(g, literal_reach(p, a, reach));
    }
  }
  EXPECT_GT(tally.fast, 0);
  EXPECT_GT(tally.exact, 0);
}

TEST(RangeGate, MatchesDistanceOnBothRings) {
  Tally tally;
  struct Range {
    double d_min, d_max;
  };
  for (const Range r : {Range{1.0, 5.0}, Range{0.0, 4.0}, Range{0.3, 0.31},
                        Range{kCoverEps, 2.0}, Range{250.0, 1000.0}}) {
    SCOPED_TRACE(r.d_min);
    const RingGate gate = range_gate(r.d_min, r.d_max);
    for (const double boundary : {r.d_min - kCoverEps, r.d_max + kCoverEps,
                                  kEps, r.d_min, r.d_max}) {
      if (boundary <= 0.0) continue;
      for (const double t : around(boundary)) {
        for (const double dir : directions()) {
          const Vec2 v = unit_vector(dir) * t;
          tally.check(gate(v.norm2()), literal_range(v, r.d_min, r.d_max));
        }
      }
    }
    // Coincident, mid-ring and out of range: always fast.
    for (const double t : {0.0, 0.5 * (r.d_min + r.d_max), 2.0 * r.d_max}) {
      const Vec2 v = unit_vector(0.7) * t;
      const Gate g = gate(v.norm2());
      EXPECT_NE(g, Gate::kExact) << t;
      tally.check(g, literal_range(v, r.d_min, r.d_max));
    }
  }
  EXPECT_GT(tally.fast, 0);
  EXPECT_GT(tally.exact, 0);
}

TEST(RangeGate, DminZeroStillFailsTheCoincidentCharger) {
  const RingGate gate = range_gate(0.0, 5.0);
  EXPECT_EQ(gate(0.0), Gate::kFail);
  EXPECT_EQ(gate(1e-20), Gate::kFail);
  EXPECT_EQ(gate(1e-6), Gate::kPass);
}

TEST(RingGate, NaNAndDegenerateBoundsTakeTheExactPath) {
  EXPECT_EQ(range_gate(1.0, 5.0)(kNaN), Gate::kExact);
  EXPECT_EQ(reach_gate(5.0)(kNaN), Gate::kExact);
  // Boundaries whose squares are not normal doubles decide nothing fast.
  const RingGate tiny(1e-170, 1e-160);
  EXPECT_EQ(tiny(std::numeric_limits<double>::denorm_min()), Gate::kExact);
  EXPECT_EQ(tiny(0.5), Gate::kExact);
  const RingGate huge(1.0, 1e200);
  EXPECT_EQ(huge(4.0), Gate::kExact);
  EXPECT_EQ(huge(0.25), Gate::kFail);
}

/// Angular offsets past the sector edge `half` at distance d: a few ulp
/// around the edge, around the literal test's slack kCoverEps / d, and
/// around the band.
std::vector<double> edge_offsets(double half, double d) {
  const double slack = kCoverEps / d;
  std::vector<double> out;
  for (const double base : {half, half + slack, half + 0.5 * slack,
                            half + kConeBand, half - kConeBand,
                            half + 2.0 * kConeBand, half + 1e-5}) {
    for (int k = -4; k <= 4; ++k) out.push_back(test::ulps(base, k));
  }
  out.push_back(half + 1e-3);
  out.push_back(std::max(0.0, half - 1e-3));
  return out;
}

TEST(ConeGate, MatchesAngleDistanceAroundTheSectorEdge) {
  Tally tally;
  const std::vector<double> halves = {
      1e-7,          5e-7,         0.1,          kPi / 6.0, 1.0,
      kPi / 2.0,     kPi - 2e-6,   kPi - 1e-6,   kPi - 5e-7};
  const std::vector<double> orientations = {0.0, 1.0, -2.0, 3.0 * kPi + 0.1,
                                            7.0, 1e5};
  // Both sides of the near-distance cut-off kConeNear = 0.2, where the
  // literal slack kCoverEps / d exceeds the band below it.
  const std::vector<double> distances = {0.01,
                                         0.05,
                                         0.1,
                                         test::ulps(kConeNear, -2),
                                         kConeNear,
                                         test::ulps(kConeNear, 2),
                                         0.3,
                                         1.0,
                                         4.99,
                                         1000.0};
  for (const double half : halves) {
    const ConeGate gate(half);
    for (const double phi : orientations) {
      const Vec2 facing = facing_vector(phi);
      for (const double d : distances) {
        for (const double off : edge_offsets(half, d)) {
          for (const double sign : {1.0, -1.0}) {
            const Vec2 v = unit_vector(phi + sign * off) * d;
            tally.check(gate(v, v.norm2(), facing),
                        literal_cone(v, half, phi));
          }
        }
      }
    }
  }
  EXPECT_GT(tally.fast, 0);
  EXPECT_GT(tally.exact, 0);
}

TEST(ConeGate, DecidesFastAwayFromTheEdge) {
  // The band is thin: a device 1e-4 rad or more from the edge, beyond the
  // cut-off, is decided without the literal test.
  for (const double half : {0.1, kPi / 3.0, 2.0}) {
    const ConeGate gate(half);
    const Vec2 facing = facing_vector(0.4);
    for (const double d : {0.25, 1.0, 50.0}) {
      for (const double off : {half - 1e-4, 0.0, half + 1e-4, kPi}) {
        const Vec2 v = unit_vector(0.4 + off) * d;
        const Gate g = gate(v, v.norm2(), facing);
        EXPECT_NE(g, Gate::kExact) << half << " " << d << " " << off;
        EXPECT_EQ(g == Gate::kPass, literal_cone(v, half, 0.4));
      }
    }
  }
}

TEST(ConeGate, NearHalfTurnAndFullCircleNeverFailFast) {
  // α_o/2 within the band of π: nothing lies beyond the edge plus the band,
  // so the gate may pass or defer but never fail. The same holds for the
  // full circle (half = π), whose literal test always passes.
  for (const double half : {kPi - 5e-7, kPi - 2e-7, kPi}) {
    const ConeGate gate(half);
    for (const double dir : {kPi, kPi - 1e-9, -kPi + 1e-7, 0.0, 2.0}) {
      const Vec2 v = unit_vector(dir) * 3.0;
      const Gate g = gate(v, v.norm2(), facing_vector(0.0));
      EXPECT_NE(g, Gate::kFail) << half << " " << dir;
      if (g == Gate::kPass) {
        EXPECT_TRUE(literal_cone(v, half, 0.0));
      }
    }
  }
}

TEST(ConeGate, NaNInputsAndFarOrientationsTakeTheExactPath) {
  const ConeGate gate(kPi / 4.0);
  const Vec2 v{1.0, 0.5};
  EXPECT_EQ(gate(Vec2{kNaN, 0.0}, kNaN, facing_vector(0.0)), Gate::kExact);
  EXPECT_EQ(gate(v, kNaN, facing_vector(0.0)), Gate::kExact);
  EXPECT_EQ(gate(v, v.norm2(), facing_vector(kNaN)), Gate::kExact);
  // Past kFacingMaxAngle the literal test's own rounding grows, so the
  // facing vector is NaN and every decision is the literal one.
  const Vec2 far = facing_vector(2.0 * kFacingMaxAngle);
  EXPECT_TRUE(std::isnan(far.x) && std::isnan(far.y));
  EXPECT_EQ(gate(v, v.norm2(), far), Gate::kExact);
  const Vec2 near = facing_vector(kFacingMaxAngle);
  EXPECT_FALSE(std::isnan(near.x));
}

TEST(ScenarioFacingData, MatchesTheDeviceTables) {
  auto cfg = test::simple_config();
  cfg.device_types = {{kPi / 3.0}, {kTwoPi}};
  cfg.pair_params = {{100.0, 40.0}, {100.0, 40.0}};
  cfg.devices = {test::device_at(5, 5, 0.7, 0), test::device_at(8, 5, 4.0, 1),
                 test::device_at(11, 5, 3e6, 0)};
  const model::Scenario s(std::move(cfg));
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    const Vec2 want = facing_vector(s.device(j).orientation);
    const Vec2 got = s.facing(j);
    EXPECT_TRUE(got == want || (std::isnan(got.x) && std::isnan(want.x)));
  }
  EXPECT_TRUE(std::isnan(s.facing(2).x));
  // The type's cone decides as a ConeGate over α_o/2.
  const ConeGate want(kPi / 6.0);
  for (const double dir : {0.0, 0.3, kPi / 6.0 + 0.01, 2.0}) {
    const Vec2 v = unit_vector(dir) * 2.0;
    EXPECT_EQ(s.receiving_cone(0)(v, v.norm2(), s.facing(0)),
              want(v, v.norm2(), s.facing(0)));
  }
}

}  // namespace
}  // namespace hipo::geom
