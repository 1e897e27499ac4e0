// SegmentIndex correctness: every accelerated obstacle query must be
// bit-identical to the brute-force scan over all polygons (the index only
// prunes which polygons get the exact predicate).
#include "src/spatial/segment_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/discretize/shadow_map.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/util/rng.hpp"

namespace hipo::spatial {
namespace {

using geom::BBox;
using geom::Polygon;
using geom::Segment;
using geom::Vec2;

BBox box(double x0, double y0, double x1, double y1) {
  BBox b;
  b.lo = {x0, y0};
  b.hi = {x1, y1};
  return b;
}

/// Random mix of convex obstacle shapes inside [0,40]^2 (overlap allowed —
/// the predicates do not care).
std::vector<Polygon> random_polygons(hipo::Rng& rng, int count) {
  std::vector<Polygon> polys;
  for (int i = 0; i < count; ++i) {
    const Vec2 c{rng.uniform(2, 38), rng.uniform(2, 38)};
    const double r = rng.uniform(0.5, 4.0);
    const int sides = 3 + static_cast<int>(rng.uniform(0, 5));
    polys.push_back(
        geom::make_regular_polygon(c, r, sides, rng.uniform(0, geom::kTwoPi)));
  }
  return polys;
}

/// Star-convex obstacles with 49 to 96 vertices inside [0,40]^2 — more
/// edges than segment_blocked's stack replica holds, so the index falls
/// back to Polygon::blocks_segment for each of them.
std::vector<Polygon> many_edged_polygons(hipo::Rng& rng, int count) {
  std::vector<Polygon> polys;
  for (int i = 0; i < count; ++i) {
    const Vec2 c{rng.uniform(2, 38), rng.uniform(2, 38)};
    const double r = rng.uniform(0.5, 4.0);
    const int sides = 49 + static_cast<int>(rng.uniform(0, 48));
    std::vector<double> unit_radii, angles;
    for (int k = 0; k < sides; ++k) {
      unit_radii.push_back(rng.uniform(0.0, 1.0));
      angles.push_back((k + rng.uniform(0.1, 0.9)) * geom::kTwoPi / sides);
    }
    polys.push_back(geom::make_star_convex_polygon(c, r, unit_radii, angles));
  }
  return polys;
}

// --- brute-force oracles --------------------------------------------------

bool brute_blocked(const std::vector<Polygon>& polys, const Segment& seg) {
  for (const auto& h : polys) {
    if (h.blocks_segment(seg)) return true;
  }
  return false;
}

bool brute_in_any(const std::vector<Polygon>& polys, Vec2 p) {
  for (const auto& h : polys) {
    if (h.contains(p)) return true;
  }
  return false;
}

std::vector<std::size_t> brute_near(const std::vector<Polygon>& polys, Vec2 p,
                                    double r) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    double nearest = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < polys[i].size(); ++e) {
      nearest =
          std::min(nearest, geom::point_segment_distance(p, polys[i].edge(e)));
    }
    if (nearest <= r) out.push_back(i);
  }
  return out;
}

/// polygons_in_box's contract: every polygon whose bbox meets `box` within
/// the index's 1e-6 safety margin, ascending.
std::vector<std::size_t> brute_in_box(const std::vector<Polygon>& polys,
                                      const BBox& b) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (polys[i].bbox().intersects(b, 1e-6)) out.push_back(i);
  }
  return out;
}

// --- basics ---------------------------------------------------------------

TEST(SegmentIndex, EmptyIndexAnswersNegative) {
  const SegmentIndex def;
  EXPECT_EQ(def.num_polygons(), 0u);
  EXPECT_FALSE(def.segment_blocked({{0, 0}, {100, 100}}));
  EXPECT_FALSE(def.point_in_any({0, 0}));
  EXPECT_TRUE(def.polygons_in_box(box(-1e9, -1e9, 1e9, 1e9)).empty());

  const SegmentIndex empty(box(0, 0, 40, 40), {});
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_FALSE(empty.segment_blocked({{-5, -5}, {45, 45}}));
}

TEST(SegmentIndex, SingleSquareBasics) {
  std::vector<Polygon> polys{geom::make_rect({10, 10}, {20, 20})};
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  // Through the interior: blocked.
  EXPECT_TRUE(index.segment_blocked({{5, 15}, {35, 15}}));
  // Fully outside: clear.
  EXPECT_FALSE(index.segment_blocked({{5, 5}, {35, 5}}));
  // Endpoint deep inside, other end outside: blocked.
  EXPECT_TRUE(index.segment_blocked({{15, 15}, {35, 35}}));
  // Containment matches boundary-inclusive Polygon::contains.
  EXPECT_TRUE(index.point_in_any({15, 15}));
  EXPECT_TRUE(index.point_in_any({10, 15}));  // on boundary
  EXPECT_FALSE(index.point_in_any({9.999, 15}));
  // boundary_distance is the exact min edge distance.
  EXPECT_NEAR(index.boundary_distance(0, {5, 15}), 5.0, 1e-12);
  EXPECT_NEAR(index.boundary_distance(0, {15, 15}), 5.0, 1e-12);
}

TEST(SegmentIndex, DegenerateQueries) {
  std::vector<Polygon> polys{geom::make_rect({10, 10}, {20, 20})};
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  // Zero-length segments: interior point vs exterior point.
  EXPECT_EQ(index.segment_blocked({{15, 15}, {15, 15}}),
            brute_blocked(polys, {{15, 15}, {15, 15}}));
  EXPECT_EQ(index.segment_blocked({{5, 5}, {5, 5}}),
            brute_blocked(polys, {{5, 5}, {5, 5}}));
  // Grazing a vertex without entering the interior does not block —
  // the index must agree with the exact predicate, not overreport.
  const Segment graze{{0, 0}, {20, 20}};  // touches corner (10,10)? No:
  // (0,0)-(20,20) passes through (10,10) and then the interior. Use the
  // diagonal that only touches the corner (10,10) from outside:
  const Segment corner{{0, 20}, {20, 0}};  // passes through (10,10) corner
  EXPECT_EQ(index.segment_blocked(corner), brute_blocked(polys, corner));
  EXPECT_EQ(index.segment_blocked(graze), brute_blocked(polys, graze));
  // Sliding exactly along an edge.
  const Segment along{{10, 10}, {10, 20}};
  EXPECT_EQ(index.segment_blocked(along), brute_blocked(polys, along));
}

TEST(SegmentIndex, ObstacleLargerThanGridCell) {
  // Many small polygons force a fine grid; the big rectangle then spans
  // many cells. A segment entirely inside the big rectangle's interior
  // never touches its edges' cells — the endpoint polygon-bbox lists must
  // still report the blockage.
  hipo::Rng rng(7);
  auto polys = random_polygons(rng, 60);
  polys.push_back(geom::make_rect({8, 8}, {32, 32}));
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  EXPECT_GT(index.num_cells(), 16u);  // grid actually subdivided
  const Segment inside{{18, 20}, {22, 20}};
  EXPECT_TRUE(index.segment_blocked(inside));
  EXPECT_EQ(index.segment_blocked(inside), brute_blocked(polys, inside));
  EXPECT_TRUE(index.point_in_any({20, 20}));
}

TEST(SegmentIndex, FarAndNonFiniteQueriesMatchBruteForce) {
  // Coordinates far outside the grid, infinite or NaN must clamp to the
  // boundary cells (a cast of such a value to an integer is undefined) and
  // still answer exactly as the brute-force scan does.
  hipo::Rng rng(29);
  auto polys = random_polygons(rng, 24);
  polys.push_back(geom::make_rect({0, 0}, {40, 2}));
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> coords{nan, inf, -inf, 1e300, -1e300,
                                   1.0, 20.0, 39.0};
  std::vector<Vec2> points;
  for (double x : coords) {
    for (double y : coords) points.push_back({x, y});
  }
  for (const Vec2& a : points) {
    EXPECT_EQ(index.point_in_any(a), brute_in_any(polys, a))
        << a.x << "," << a.y;
    for (const Vec2& b : points) {
      const Segment seg{a, b};
      EXPECT_EQ(index.segment_blocked(seg), brute_blocked(polys, seg))
          << a.x << "," << a.y << " -> " << b.x << "," << b.y;
      const BBox q = box(std::min(a.x, b.x), std::min(a.y, b.y),
                         std::max(a.x, b.x), std::max(a.y, b.y));
      EXPECT_EQ(index.polygons_in_box(q), brute_in_box(polys, q))
          << a.x << "," << a.y << " .. " << b.x << "," << b.y;
    }
  }
}

// --- randomized oracle comparison ----------------------------------------

class SegmentOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SegmentOracleTest, MatchesBruteForce) {
  const int num_polys = GetParam();
  hipo::Rng rng(static_cast<std::uint64_t>(num_polys) * 977 + 5);
  const auto polys = random_polygons(rng, num_polys);
  const SegmentIndex index(box(0, 0, 40, 40), polys);

  for (int trial = 0; trial < 300; ++trial) {
    const Segment seg{{rng.uniform(-5, 45), rng.uniform(-5, 45)},
                      {rng.uniform(-5, 45), rng.uniform(-5, 45)}};
    EXPECT_EQ(index.segment_blocked(seg), brute_blocked(polys, seg));

    const Vec2 p = seg.a;
    EXPECT_EQ(index.point_in_any(p), brute_in_any(polys, p));

    const double r = rng.uniform(0.0, 12.0);
    EXPECT_EQ(index.polygons_near(p, r), brute_near(polys, p, r));
  }
}

TEST_P(SegmentOracleTest, ShortSegmentsMatchBruteForce) {
  // Charging-range-scale segments (the LOS workload shape).
  const int num_polys = GetParam();
  hipo::Rng rng(static_cast<std::uint64_t>(num_polys) * 31 + 11);
  const auto polys = random_polygons(rng, num_polys);
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec2 a{rng.uniform(0, 40), rng.uniform(0, 40)};
    const double ang = rng.uniform(0, geom::kTwoPi);
    const double len = rng.uniform(0.0, 6.0);
    const Segment seg{a, a + geom::unit_vector(ang) * len};
    EXPECT_EQ(index.segment_blocked(seg), brute_blocked(polys, seg));
  }
}

TEST_P(SegmentOracleTest, ManyEdgedPolygonsMatchBruteForce) {
  // Polygons past the replica's 48-edge buffer: segment queries take the
  // Polygon::blocks_segment branch, mixed with the degenerate-query path.
  const int num_polys = GetParam();
  hipo::Rng rng(static_cast<std::uint64_t>(num_polys) * 613 + 3);
  const auto polys = many_edged_polygons(rng, num_polys);
  const SegmentIndex index(box(0, 0, 40, 40), polys);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec2 a{rng.uniform(-5, 45), rng.uniform(-5, 45)};
    const double len = trial % 10 == 0 ? 0.0 : rng.uniform(0.0, 12.0);
    const Segment seg{a, a + geom::unit_vector(rng.uniform(0, geom::kTwoPi)) *
                                 len};
    EXPECT_EQ(index.segment_blocked(seg), brute_blocked(polys, seg));
    EXPECT_EQ(index.point_in_any(a), brute_in_any(polys, a));
    const double r = rng.uniform(0.0, 12.0);
    EXPECT_EQ(index.polygons_near(a, r), brute_near(polys, a, r));
  }
}

// 256 polygons crowd each cell with many registrations, most of them
// duplicates of polygons spanning several cells, so the first-cell rule
// that tests each polygon once is compared against the brute force too.
INSTANTIATE_TEST_SUITE_P(PolygonCounts, SegmentOracleTest,
                         ::testing::Values(1, 4, 16, 64, 256));

// --- integration with Scenario and ShadowMap ------------------------------

class ScenarioEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioEquivalenceTest, PredicatesMatchBruteForce) {
  model::GenOptions gen;
  gen.num_obstacles = GetParam();
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const auto scenario = model::make_paper_scenario(gen, rng);
  const auto& polys = scenario.obstacles();
  ASSERT_EQ(polys.size(), static_cast<std::size_t>(GetParam()));

  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 a{rng.uniform(0, 40), rng.uniform(0, 40)};
    const Vec2 b{rng.uniform(0, 40), rng.uniform(0, 40)};
    EXPECT_EQ(scenario.line_of_sight(a, b), !brute_blocked(polys, {a, b}));
    EXPECT_EQ(scenario.position_feasible(a),
              scenario.region().contains(a, geom::kEps) &&
                  !brute_in_any(polys, a));
  }
}

TEST_P(ScenarioEquivalenceTest, ShadowMapConstructorsAgree) {
  model::GenOptions gen;
  gen.num_obstacles = std::max(1, GetParam());
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 941 + 23);
  const auto scenario = model::make_paper_scenario(gen, rng);

  for (std::size_t j = 0; j < std::min<std::size_t>(scenario.num_devices(), 8);
       ++j) {
    const Vec2 origin = scenario.device(j).pos;
    const double range = scenario.max_charge_range();
    const discretize::ShadowMap by_vector(origin, scenario.obstacles(), range);
    const discretize::ShadowMap by_index(origin, scenario.obstacle_index(),
                                         range);
    ASSERT_EQ(by_vector.relevant_obstacles().size(),
              by_index.relevant_obstacles().size());
    for (std::size_t k = 0; k < by_vector.relevant_obstacles().size(); ++k) {
      EXPECT_EQ(by_vector.relevant_obstacles()[k]->vertices(),
                by_index.relevant_obstacles()[k]->vertices());
    }
    EXPECT_EQ(by_vector.event_angles(), by_index.event_angles());
    for (int trial = 0; trial < 50; ++trial) {
      const Vec2 p{rng.uniform(0, 40), rng.uniform(0, 40)};
      EXPECT_EQ(by_vector.visible(p), by_index.visible(p));
      const double theta = rng.uniform(0, geom::kTwoPi);
      EXPECT_EQ(by_vector.first_block_distance(theta),
                by_index.first_block_distance(theta));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ObstacleCounts, ScenarioEquivalenceTest,
                         ::testing::Values(0, 2, 8, 24));

}  // namespace
}  // namespace hipo::spatial
