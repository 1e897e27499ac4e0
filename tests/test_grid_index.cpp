#include "src/spatial/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::spatial {
namespace {

using geom::BBox;
using geom::Vec2;

BBox box(double x0, double y0, double x1, double y1) {
  BBox b;
  b.lo = {x0, y0};
  b.hi = {x1, y1};
  return b;
}

TEST(GridIndex, EmptyPoints) {
  const GridIndex index(box(0, 0, 10, 10), {});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query_radius({5, 5}, 100.0).empty());
}

TEST(GridIndex, SinglePointHit) {
  const GridIndex index(box(0, 0, 10, 10), {{3, 3}});
  const auto hits = index.query_radius({3.5, 3.0}, 1.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_TRUE(index.query_radius({9, 9}, 1.0).empty());
}

TEST(GridIndex, RadiusBoundaryInclusive) {
  const GridIndex index(box(0, 0, 10, 10), {{0, 0}, {4, 0}});
  const auto hits = index.query_radius({0, 0}, 4.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(GridIndex, PointOutsideBoundsStillIndexed) {
  const GridIndex index(box(0, 0, 10, 10), {{-2, -2}});
  const auto hits = index.query_radius({-1, -1}, 3.0);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndex, FarAndNonFiniteCentersClampToBoundaryCells) {
  // Cell coordinates far past the integer range (or NaN) must clamp, not
  // go through an undefined double-to-integer conversion.
  const GridIndex index(box(0, 0, 10, 10),
                        {{1, 1}, {5, 5}, {9, 9}, {2, 8}, {8, 2}});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(index.query_radius({1e30, 9}, 2e30),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(index.query_radius({-1e30, 1}, 2e30),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(index.query_radius({inf, 5}, 3.0).empty());
  EXPECT_TRUE(index.query_radius({5, -inf}, 3.0).empty());
  EXPECT_TRUE(index.query_radius({nan, 5}, 3.0).empty());
  EXPECT_TRUE(GridIndex().query_radius({5, 5}, 100.0).empty());
}

TEST(GridIndex, ExtremeAspectRatiosStayBounded) {
  // A box 1e190 times wider than tall (or taller than wide) once asked for
  // ~1e95 cells along its long axis: the build threw std::length_error, and
  // at ~1e18 it tried to allocate gigabytes. The long axis now gets at most
  // as many cells as the whole grid targets.
  const GridIndex wide(box(0, 0, 1e190, 1), {{0, 0}, {5e189, 0.5}, {1e190, 1}});
  EXPECT_EQ(wide.query_radius({5e189, 0}, 1.0),
            (std::vector<std::size_t>{1}));
  const GridIndex tall(box(0, 0, 1, 1e18), {{0, 0}, {1, 1e18}});
  EXPECT_EQ(tall.query_radius({0, 0}, 2e18),
            (std::vector<std::size_t>{0, 1}));
  const double huge = std::numeric_limits<double>::max();
  const GridIndex infinite(box(-huge, 0, huge, 1), {{0, 0}});
  EXPECT_EQ(infinite.query_radius({0, 0}, 1.0),
            (std::vector<std::size_t>{0}));
}

TEST(GridIndex, RejectsDegenerateBox) {
  EXPECT_THROW(GridIndex(box(0, 0, 0, 10), {}), hipo::ConfigError);
  EXPECT_THROW(GridIndex(box(0, 0, 10, 10), {}, 0.0), hipo::ConfigError);
}

TEST(GridIndex, NegativeRadiusThrows) {
  const GridIndex index(box(0, 0, 10, 10), {{1, 1}});
  EXPECT_THROW(index.query_radius({0, 0}, -1.0), hipo::ConfigError);
}

TEST(GridIndex, QueryBox) {
  const GridIndex index(box(0, 0, 10, 10), {{1, 1}, {5, 5}, {9, 9}});
  const auto hits = index.query_box(box(0, 0, 6, 6));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
}

TEST(GridIndex, ResultsSorted) {
  const GridIndex index(box(0, 0, 10, 10),
                        {{5, 5}, {5.1, 5.0}, {4.9, 5.0}, {5.0, 5.1}});
  const auto hits = index.query_radius({5, 5}, 1.0);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
  EXPECT_EQ(hits.size(), 4u);
}

TEST(GridIndex, OutParameterQueryMatchesVectorForm) {
  hipo::Rng rng(41);
  std::vector<Vec2> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.uniform(0, 40), rng.uniform(0, 40)});
  }
  const GridIndex index(box(0, 0, 40, 40), points);
  // Stale contents from a previous (larger) query must not survive.
  std::vector<std::size_t> out(500, 12345);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 c{rng.uniform(-5, 45), rng.uniform(-5, 45)};
    const double r = rng.uniform(0.0, 12.0);
    index.query_radius(c, r, out);
    EXPECT_EQ(out, index.query_radius(c, r));
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
  index.query_radius({100, 100}, 1.0, out);
  EXPECT_TRUE(out.empty());
}

// Property: grid queries agree with a brute-force scan for many random
// point sets, query centers, and radii, across grid densities.
class GridOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(GridOracleTest, MatchesBruteForce) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam() * 100) + 3);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0, 40), rng.uniform(0, 40)});
  }
  const GridIndex index(box(0, 0, 40, 40), points, GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 c{rng.uniform(-5, 45), rng.uniform(-5, 45)};
    const double r = rng.uniform(0.0, 15.0);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (geom::distance(points[i], c) <= r) expected.push_back(i);
    }
    EXPECT_EQ(index.query_radius(c, r), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, GridOracleTest,
                         ::testing::Values(0.5, 1.0, 2.0, 8.0, 64.0));

}  // namespace
}  // namespace hipo::spatial
