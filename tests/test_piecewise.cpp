#include "src/model/piecewise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::model {
namespace {

TEST(RingLadder, ValidatesParameters) {
  EXPECT_THROW(RingLadder(0.0, 1.0, 1.0, 2.0, 0.1), hipo::ConfigError);
  EXPECT_THROW(RingLadder(1.0, 0.0, 1.0, 2.0, 0.1), hipo::ConfigError);
  EXPECT_THROW(RingLadder(1.0, 1.0, 2.0, 1.0, 0.1), hipo::ConfigError);
  EXPECT_THROW(RingLadder(1.0, 1.0, 1.0, 2.0, 0.0), hipo::ConfigError);
  // A ladder past 2^20 rings is refused up front; a subnormal ε₁ (as a
  // mutated scenario line can give) once looped for ~1e324 rungs.
  EXPECT_THROW(RingLadder(1.0, 1.0, 0.0, 2.0, 4.9e-324), hipo::ConfigError);
  EXPECT_THROW(RingLadder(1.0, 1e-300, 0.0, 1e300, 0.3), hipo::ConfigError);
  EXPECT_NO_THROW(RingLadder(100.0, 40.0, 1.0, 5.0, 1e-4));
}

TEST(RingLadder, ExactPowerFormula) {
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  EXPECT_NEAR(lad.exact_power(5.0), 100.0 / (45.0 * 45.0), 1e-12);
  EXPECT_NEAR(lad.exact_power(10.0), 100.0 / (50.0 * 50.0), 1e-12);
}

TEST(RingLadder, OuterRadiiEndAtDmax) {
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  ASSERT_FALSE(lad.outer_radii().empty());
  EXPECT_DOUBLE_EQ(lad.outer_radii().back(), 10.0);
  for (double r : lad.outer_radii()) {
    EXPECT_GT(r, 5.0);
    EXPECT_LE(r, 10.0);
  }
}

TEST(RingLadder, RingIndexOutsideDomain) {
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  EXPECT_FALSE(lad.ring_index(4.9).has_value());
  EXPECT_FALSE(lad.ring_index(10.1).has_value());
  EXPECT_TRUE(lad.ring_index(5.0).has_value());
  EXPECT_TRUE(lad.ring_index(10.0).has_value());
}

TEST(RingLadder, ApproxZeroOutsideDomain) {
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  EXPECT_DOUBLE_EQ(lad.approx_power(1.0), 0.0);
  EXPECT_DOUBLE_EQ(lad.approx_power(20.0), 0.0);
}

TEST(RingLadder, ApproxIsRingOuterPower) {
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  for (std::size_t r = 0; r < lad.num_rings(); ++r) {
    const double outer = lad.outer_radii()[r];
    EXPECT_NEAR(lad.ring_power(r), lad.exact_power(outer), 1e-12);
    // The approximation at the ring's outer edge is exact.
    EXPECT_NEAR(lad.approx_power(outer), lad.exact_power(outer), 1e-12);
  }
}

TEST(RingLadder, MonotoneNonIncreasingPowers) {
  const RingLadder lad(130.0, 52.0, 3.0, 8.0, 0.2);
  for (std::size_t r = 1; r < lad.num_rings(); ++r) {
    EXPECT_LE(lad.ring_power(r), lad.ring_power(r - 1));
  }
}

TEST(RingLadder, SmallerEpsMoreRings) {
  const RingLadder coarse(100.0, 40.0, 2.0, 10.0, 0.5);
  const RingLadder fine(100.0, 40.0, 2.0, 10.0, 0.02);
  EXPECT_GT(fine.num_rings(), coarse.num_rings());
}

// Lemma 4.1 property: 1 <= P(d)/P̃(d) <= 1+ε₁ on [d_min, d_max], across
// random parameterizations.
struct LadderParams {
  double a, b, d_min, d_max, eps1;
};

class Lemma41Test : public ::testing::TestWithParam<double> {};

TEST_P(Lemma41Test, ApproximationRatioBounded) {
  const double eps1 = GetParam();
  hipo::Rng rng(static_cast<std::uint64_t>(eps1 * 1e6) + 19);
  for (int trial = 0; trial < 40; ++trial) {
    const double a = rng.uniform(50.0, 300.0);
    const double b = rng.uniform(5.0, 100.0);
    const double d_min = rng.uniform(0.0, 5.0);
    const double d_max = d_min + rng.uniform(1.0, 15.0);
    const RingLadder lad(a, b, d_min, d_max, eps1);
    for (int probe = 0; probe < 200; ++probe) {
      const double d = rng.uniform(d_min, d_max);
      const double exact = lad.exact_power(d);
      const double approx = lad.approx_power(d);
      ASSERT_GT(approx, 0.0) << "d=" << d;
      const double ratio = exact / approx;
      EXPECT_GE(ratio, 1.0 - 1e-9) << "d=" << d << " eps1=" << eps1;
      EXPECT_LE(ratio, 1.0 + eps1 + 1e-9) << "d=" << d << " eps1=" << eps1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, Lemma41Test,
                         ::testing::Values(0.05, 0.1, 0.2, 0.42857, 0.8));

TEST(RingLadder, RingCountMatchesTheory) {
  // Lemma 4.4 ingredient: the number of rings is O(1/ε₁) — verify the
  // K − k₀ formula's scaling for a representative parameterization.
  const double a = 100.0, b = 40.0, d_min = 5.0, d_max = 10.0;
  for (double eps1 : {0.05, 0.1, 0.2, 0.4}) {
    const RingLadder lad(a, b, d_min, d_max, eps1);
    const double bound =
        2.0 * (std::log1p(d_max / b) - std::log1p(d_min / b)) /
            std::log1p(eps1) +
        2.0;
    EXPECT_LE(static_cast<double>(lad.num_rings()), bound + 1e-9);
  }
}

TEST(RingLadder, BoundariesExactlyOnRungsKeepRatioBound) {
  // Regression (found by hipo_fuzz): the ring enumeration used ±1e-12
  // nudges around the log-derived indices, so a d_min or d_max within a few
  // ulp of a rung radius l(k) could gain or lose a ring and break the
  // Lemma 4.1 ratio bound. With small b the relative excess 2δ/(l+b) of a
  // misplaced boundary is large enough to observe. Boundaries exactly on
  // l(k) and 8e-13 to either side must all keep every ring's worst-case
  // ratio P/P̃ within 1 + ε₁.
  const double a = 1.7, b = 0.018, eps1 = 0.3;
  const double log1e = std::log1p(eps1);
  const auto l = [&](long long k) {
    return b * (std::exp(0.5 * static_cast<double>(k) * log1e) - 1.0);
  };
  for (const double d_min : {0.0, l(1), l(1) - 8e-13, l(1) + 8e-13}) {
    for (const double d_max : {l(3), l(3) - 8e-13, l(3) + 8e-13}) {
      const RingLadder lad(a, b, d_min, d_max, eps1);
      EXPECT_DOUBLE_EQ(lad.outer_radii().back(), d_max);
      for (std::size_t r = 0; r < lad.num_rings(); ++r) {
        const double inner = r == 0 ? d_min : lad.outer_radii()[r - 1];
        const double outer = lad.outer_radii()[r];
        ASSERT_LT(inner, outer);
        const double ratio = lad.exact_power(inner) / lad.exact_power(outer);
        EXPECT_LE(ratio, (1.0 + eps1) * (1.0 + 1e-11))
            << "d_min=" << d_min << " d_max=" << d_max << " ring=" << r;
      }
    }
  }
}

TEST(RingLadder, RingIndexAtExactRungBoundaries) {
  // Each outer radius belongs to its own ring (closed outer boundary), and
  // approx_power there returns exactly that ring's stored power.
  const RingLadder lad(100.0, 40.0, 5.0, 10.0, 0.3);
  EXPECT_EQ(*lad.ring_index(5.0), 0u);
  for (std::size_t r = 0; r < lad.num_rings(); ++r) {
    const double outer = lad.outer_radii()[r];
    const auto idx = lad.ring_index(outer);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, r);
    EXPECT_EQ(lad.approx_power(outer), lad.ring_power(r));
  }
}

TEST(RingLadder, DminZeroStartsAtApex) {
  const RingLadder lad(100.0, 40.0, 0.0, 10.0, 0.3);
  EXPECT_TRUE(lad.ring_index(0.0).has_value());
  EXPECT_EQ(*lad.ring_index(0.0), 0u);
  EXPECT_GT(lad.approx_power(0.0), 0.0);
}

}  // namespace
}  // namespace hipo::model
