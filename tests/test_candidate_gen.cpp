#include "src/pdcs/candidate_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <span>

#include "src/geometry/angles.hpp"
#include "src/geometry/circle.hpp"
#include "src/pdcs/extract.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::pdcs {
namespace {

using geom::Vec2;

TEST(RingRadii, StartsAtDminEndsAtDmax) {
  const auto s = test::simple_scenario();
  const auto radii = ring_radii(s, 0, 0);
  ASSERT_GE(radii.size(), 2u);
  EXPECT_DOUBLE_EQ(radii.front(), 1.0);
  EXPECT_DOUBLE_EQ(radii.back(), 5.0);
  EXPECT_TRUE(std::is_sorted(radii.begin(), radii.end()));
}

TEST(PairPositions, AllFeasibleAndInRange) {
  const auto s = test::simple_scenario();
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  EXPECT_FALSE(positions.empty());
  const double d_max = s.charger_type(0).d_max;
  for (const Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p));
    const double d0 = geom::distance(p, s.device(0).pos);
    const double d1 = geom::distance(p, s.device(1).pos);
    EXPECT_TRUE(d0 <= d_max + 1e-6 && d1 <= d_max + 1e-6);
  }
}

TEST(PairPositions, Deduplicated) {
  const auto s = test::simple_scenario();
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  std::set<std::pair<long long, long long>> seen;
  for (const Vec2& p : positions) {
    const auto key = std::make_pair(llround(p.x * 1e6), llround(p.y * 1e6));
    EXPECT_TRUE(seen.insert(key).second) << "duplicate at " << p;
  }
}

TEST(PairPositions, AblationFlagsReduceCount) {
  const auto s = test::simple_scenario();
  ExtractOptions all;
  ExtractOptions none;
  none.use_pair_line = false;
  none.use_pair_arcs = false;
  none.use_ring_ring = false;
  none.use_obstacle_ring = false;
  const auto with_all = pair_candidate_positions(s, 0, 0, 1, all);
  const auto with_none = pair_candidate_positions(s, 0, 0, 1, none);
  EXPECT_GT(with_all.size(), with_none.size());
  EXPECT_TRUE(with_none.empty());
}

TEST(PairPositions, RingRingPointsLieOnCircles) {
  const auto s = test::simple_scenario();
  ExtractOptions opt;
  opt.use_pair_line = false;
  opt.use_pair_arcs = false;
  opt.use_obstacle_ring = false;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  const auto ri = ring_radii(s, 0, 0);
  const auto rj = ring_radii(s, 0, 1);
  for (const Vec2& p : positions) {
    const double d0 = geom::distance(p, s.device(0).pos);
    const double d1 = geom::distance(p, s.device(1).pos);
    const auto on_some = [](double d, const std::vector<double>& radii) {
      for (double r : radii)
        if (std::abs(d - r) < 1e-6) return true;
      return false;
    };
    EXPECT_TRUE(on_some(d0, ri));
    EXPECT_TRUE(on_some(d1, rj));
  }
}

TEST(SingletonPositions, OnOwnRings) {
  const auto s = test::simple_scenario();
  const auto positions = singleton_candidate_positions(s, 0, 0, pdcs::ExtractOptions{});
  EXPECT_FALSE(positions.empty());
  const auto radii = ring_radii(s, 0, 0);
  for (const Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p));
    const double d = geom::distance(p, s.device(0).pos);
    bool on_ring = false;
    for (double r : radii)
      if (std::abs(d - r) < 1e-6) on_ring = true;
    EXPECT_TRUE(on_ring);
  }
}

TEST(ObstacleRingPositions, GeneratedNearObstacle) {
  const auto s = test::blocked_scenario();
  ExtractOptions opt;
  opt.use_pair_line = false;
  opt.use_pair_arcs = false;
  opt.use_ring_ring = false;
  opt.use_singleton = false;
  // Single device scenario: pair generation needs two devices, so probe the
  // singleton path indirectly via obstacle-ring on a two-device variant.
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(10, 10), test::device_at(14, 10)};
  cfg.obstacles = {geom::make_rect({11.0, 9.5}, {12.0, 10.5})};
  const model::Scenario s2(std::move(cfg));
  const auto positions = pair_candidate_positions(s2, 0, 0, 1, opt);
  EXPECT_FALSE(positions.empty());
}

TEST(ExtractDeviceTask, SoundCandidates) {
  const auto s = test::simple_scenario();
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j)
    pts.push_back(s.device(j).pos);
  const spatial::GridIndex index(s.region(), pts);
  const auto cands = extract_device_task(s, index, 0, ExtractOptions{});
  EXPECT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_TRUE(s.position_feasible(c.strategy.pos));
    for (std::size_t k = 0; k < c.covered.size(); ++k) {
      EXPECT_NEAR(c.powers[k], s.approx_power(c.strategy, c.covered[k]),
                  1e-12);
      EXPECT_GT(c.powers[k], 0.0);
    }
    EXPECT_TRUE(std::is_sorted(c.covered.begin(), c.covered.end()));
  }
}

TEST(ExtractDeviceTask, RespectsIndexOrdering) {
  // Task for the highest-index device only pairs with larger indices (none),
  // so it should contain only singleton-derived candidates — still nonempty.
  const auto s = test::simple_scenario();
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j)
    pts.push_back(s.device(j).pos);
  const spatial::GridIndex index(s.region(), pts);
  const auto last = extract_device_task(s, index, s.num_devices() - 1,
                                        ExtractOptions{});
  EXPECT_FALSE(last.empty());
}

TEST(CandidateGen, DminZeroColocatedChargerSemantics) {
  // d_min = 0: the ladder starts at the apex, but a charger *exactly* on
  // the device is defined as not covering it (coincident positions have
  // undefined sector angles — coverage_geometry's d <= kEps guard). A
  // charger a hair away is covered and gets the innermost ring's power.
  auto cfg = test::simple_config();
  cfg.charger_types[0].d_min = 0.0;
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  const auto radii = ring_radii(s, 0, 0);
  ASSERT_FALSE(radii.empty());
  EXPECT_DOUBLE_EQ(radii.front(), 0.0);
  const model::Strategy colocated{{10.0, 10.0}, 0.0, 0};
  EXPECT_FALSE(s.covers(colocated, 0));
  EXPECT_EQ(s.approx_power(colocated, 0), 0.0);
  EXPECT_EQ(s.exact_power(colocated, 0), 0.0);
  const model::Strategy nearby{{10.0 - 1e-3, 10.0}, 0.0, 0};
  EXPECT_TRUE(s.covers(nearby, 0));
  EXPECT_GT(s.approx_power(nearby, 0), 0.0);
  EXPECT_GE(s.exact_power(nearby, 0), s.approx_power(nearby, 0));
}

TEST(CandidateGen, FullAngleChargerExtraction) {
  // α_q = 2π (omnidirectional charger): the rotational sweep degenerates —
  // every orientation covers the same set — and extraction must still
  // produce candidates that cover the devices.
  auto cfg = test::simple_config();
  cfg.charger_types[0].angle = geom::kTwoPi;
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10)};
  const model::Scenario s(std::move(cfg));
  const auto extraction = extract_all(s);
  ASSERT_FALSE(extraction.candidates.empty());
  bool covers_any = false;
  for (const auto& c : extraction.candidates) {
    EXPECT_TRUE(s.position_feasible(c.strategy.pos));
    covers_any = covers_any || !c.covered.empty();
  }
  EXPECT_TRUE(covers_any);
}

TEST(CandidateGen, ChargerOnObstacleVertexInfeasiblePositionsFiltered) {
  // Obstacle with a vertex between the devices: generated positions must
  // all be feasible (outside obstacle interiors) even though several
  // construction families intersect the obstacle boundary itself.
  auto cfg = test::simple_config();
  cfg.devices = {test::device_at(8, 10), test::device_at(14, 10)};
  cfg.obstacles = {geom::make_rect({10.5, 9.0}, {11.5, 11.0})};
  const model::Scenario s(std::move(cfg));
  const ExtractOptions opt;
  const auto positions = pair_candidate_positions(s, 0, 0, 1, opt);
  for (const geom::Vec2& p : positions) {
    EXPECT_TRUE(s.position_feasible(p)) << p;
  }
}

// --- Reference oracle ------------------------------------------------------
//
// The literal per-position path: the gating of orientable_covers, then
// Scenario::approx_power for every (orientation, device) pair — the full
// Eq. (1) gating each time, without a memo — and the general
// filter_dominated at every position and again per task. The task pass
// hoists the orientation-independent geometry and filters positions on
// bitmasks; it must reproduce this byte for byte.

std::vector<Candidate> reference_point_case(const model::Scenario& s,
                                            std::size_t q, Vec2 pos,
                                            std::span<const std::size_t> pool) {
  std::vector<Candidate> out;
  if (!s.position_feasible(pos)) return out;
  const auto& ct = s.charger_type(q);
  std::vector<std::size_t> coverable;
  for (std::size_t j : pool) {
    const auto& dev = s.device(j);
    const Vec2 so = dev.pos - pos;
    const double d = so.norm();
    if (d < ct.d_min - geom::kCoverEps || d > ct.d_max + geom::kCoverEps)
      continue;
    if (d <= geom::kEps) continue;
    const double recv = s.device_type(dev.type).angle;
    if (recv < geom::kTwoPi &&
        geom::angle_distance((-so).angle(), dev.orientation) >
            recv / 2.0 + geom::kCoverEps / std::max(d, 1e-12))
      continue;
    if (!s.line_of_sight(pos, dev.pos)) continue;
    coverable.push_back(j);
  }
  if (coverable.empty()) return out;

  const double alpha = ct.angle;
  std::vector<double> theta;
  for (std::size_t j : coverable) {
    theta.push_back(geom::norm_angle((s.device(j).pos - pos).angle()));
  }
  std::vector<double> orientations;
  if (alpha >= geom::kTwoPi) {
    orientations.push_back(0.0);
  } else {
    for (double t : theta) orientations.push_back(geom::norm_angle(t + alpha / 2.0));
    std::sort(orientations.begin(), orientations.end());
    orientations.erase(std::unique(orientations.begin(), orientations.end(),
                                   [](double a, double b) {
                                     return std::abs(a - b) <= 1e-12;
                                   }),
                       orientations.end());
  }
  for (double phi : orientations) {
    Candidate cand;
    cand.strategy = model::Strategy{pos, phi, q};
    for (std::size_t i = 0; i < coverable.size(); ++i) {
      if (alpha < geom::kTwoPi &&
          geom::angle_distance(theta[i], phi) > alpha / 2.0 + 1e-9)
        continue;
      const double p = s.approx_power(cand.strategy, coverable[i]);
      if (p > 0.0) {
        cand.covered.push_back(coverable[i]);
        cand.powers.push_back(p);
      }
    }
    if (!cand.covers_nothing()) out.push_back(std::move(cand));
  }
  return filter_dominated(std::move(out), s.num_devices());
}

std::vector<Candidate> reference_task(const model::Scenario& s,
                                      const spatial::GridIndex& index,
                                      std::size_t i,
                                      const ExtractOptions& opt) {
  std::vector<Candidate> out;
  const Vec2 oi = s.device(i).pos;
  for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
    const double d_max = s.charger_type(q).d_max;
    std::vector<Vec2> positions;
    if (opt.use_singleton) {
      positions = singleton_candidate_positions(s, q, i, opt);
    }
    for (std::size_t j : index.query_radius(oi, 2.0 * d_max)) {
      if (j <= i) continue;
      const auto pts = pair_candidate_positions(s, q, i, j, opt);
      positions.insert(positions.end(), pts.begin(), pts.end());
    }
    std::vector<Candidate> rows;
    for (Vec2 p : positions) {
      const auto pool = index.query_radius(p, d_max + geom::kCoverEps);
      for (auto& c : reference_point_case(s, q, p, pool)) {
        rows.push_back(std::move(c));
      }
    }
    for (auto& c : filter_dominated(std::move(rows), s.num_devices())) {
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_byte_equal(const std::vector<Candidate>& got,
                       const std::vector<Candidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(bits(got[k].strategy.pos.x), bits(want[k].strategy.pos.x));
    EXPECT_EQ(bits(got[k].strategy.pos.y), bits(want[k].strategy.pos.y));
    EXPECT_EQ(bits(got[k].strategy.orientation),
              bits(want[k].strategy.orientation));
    EXPECT_EQ(got[k].strategy.type, want[k].strategy.type);
    EXPECT_EQ(got[k].covered, want[k].covered);
    ASSERT_EQ(got[k].powers.size(), want[k].powers.size());
    for (std::size_t e = 0; e < got[k].powers.size(); ++e) {
      EXPECT_EQ(bits(got[k].powers[e]), bits(want[k].powers[e]));
    }
  }
}

spatial::GridIndex device_index(const model::Scenario& s) {
  std::vector<Vec2> pts;
  for (std::size_t j = 0; j < s.num_devices(); ++j) pts.push_back(s.device(j).pos);
  return spatial::GridIndex(s.region(), std::move(pts));
}

/// extract_device_task against the reference for `tasks` (every task when
/// empty); returns the number of rows compared.
std::size_t expect_tasks_match(const model::Scenario& s,
                               std::vector<std::size_t> tasks = {}) {
  const auto index = device_index(s);
  if (tasks.empty()) {
    for (std::size_t i = 0; i < s.num_devices(); ++i) tasks.push_back(i);
  }
  const ExtractOptions opt;
  std::size_t rows = 0;
  for (std::size_t i : tasks) {
    SCOPED_TRACE("task " + std::to_string(i));
    const auto got = extract_device_task(s, index, i, opt);
    expect_byte_equal(got, reference_task(s, index, i, opt));
    rows += got.size();
  }
  return rows;
}

TEST(ExtractDeviceTask, PooledTasksMatchSerial) {
  // Tasks run concurrently on pool workers, each with its own scratch; the
  // pool must not change a byte.
  model::GenOptions gen;
  gen.device_multiplier = 3;
  hipo::Rng rng(404);
  const auto s = model::make_paper_scenario(gen, rng);
  parallel::ThreadPool pool(3);
  const auto serial = extract_all(s);
  const auto pooled = extract_all(s, ExtractOptions{}, &pool);
  EXPECT_EQ(pooled.raw_candidates, serial.raw_candidates);
  expect_byte_equal(pooled.candidates, serial.candidates);
}

TEST(ReferenceOracle, SeededPaperScenariosWithObstacles) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    model::GenOptions gen;
    gen.device_multiplier = 2;
    gen.num_obstacles = 6;
    hipo::Rng rng(seed * 7919);
    const auto s = model::make_paper_scenario(gen, rng);
    ASSERT_GT(s.num_obstacles(), 0u);
    EXPECT_GT(expect_tasks_match(s), 0u);
  }
}

TEST(ReferenceOracle, FullCircleCharger) {
  auto cfg = test::simple_config();
  cfg.charger_types = {{geom::kTwoPi, 1.0, 5.0}, {geom::kPi / 3.0, 0.5, 4.0}};
  cfg.pair_params = {{100.0, 40.0}, {90.0, 35.0}, {80.0, 30.0}, {70.0, 25.0}};
  cfg.charger_counts = {1, 1};
  cfg.device_types = {{geom::kTwoPi}, {geom::kPi}};
  hipo::Rng rng(11);
  for (int k = 0; k < 12; ++k) {
    cfg.devices.push_back(test::device_at(rng.uniform(4, 16), rng.uniform(4, 16),
                                          rng.uniform(0, geom::kTwoPi),
                                          static_cast<std::size_t>(k % 2)));
  }
  const model::Scenario s(std::move(cfg));
  EXPECT_GT(expect_tasks_match(s), 0u);
}

TEST(ReferenceOracle, DminZero) {
  auto cfg = test::simple_config();
  cfg.charger_types[0].d_min = 0.0;
  cfg.devices = {test::device_at(10, 10), test::device_at(10.5, 10),
                 test::device_at(12, 11), test::device_at(9, 13),
                 test::device_at(14, 10, geom::kPi)};
  cfg.obstacles = {geom::make_rect({11.0, 11.5}, {12.5, 12.5})};
  const model::Scenario s(std::move(cfg));
  EXPECT_GT(expect_tasks_match(s), 0u);
}

TEST(ReferenceOracle, ClusterBeyondOneMaskWord) {
  // 80 omni devices within 1.5 m of (10, 10), d ∈ [1, 5]: a charger about
  // 3 m from the centre can cover all of them, so the per-position masks
  // span two 64-bit words. The last tasks keep the reference affordable
  // (few pairs j > i).
  auto cfg = test::simple_config();
  hipo::Rng rng(5);
  for (int k = 0; k < 80; ++k) {
    const double r = 1.5 * std::sqrt(rng.uniform(0, 1));
    const double a = rng.uniform(0, geom::kTwoPi);
    cfg.devices.push_back(
        test::device_at(10 + r * std::cos(a), 10 + r * std::sin(a)));
  }
  const model::Scenario s(std::move(cfg));
  std::vector<std::size_t> all(s.num_devices());
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;
  ASSERT_GT(orientable_covers(s, 0, {13.0, 10.0}, all).size(), 64u);
  const std::size_t n = s.num_devices();
  EXPECT_GT(expect_tasks_match(s, {n - 3, n - 2, n - 1}), 0u);
}

TEST(ReferenceOracle, TaskPositionsStayInsideTheTwoAnchorLens) {
  // Directional devices and obstacles, so every family fires. A task-i
  // pair position lies within d_max + kCoverEps of o_i and of its partner
  // o_j; a singleton position (and so every row of the task) within that
  // of o_i.
  model::GenOptions gen;
  gen.device_multiplier = 2;
  gen.num_obstacles = 6;
  hipo::Rng rng(2027);
  const auto s = model::make_paper_scenario(gen, rng);
  const auto index = device_index(s);
  const ExtractOptions opt;
  std::size_t pair_positions = 0;
  for (std::size_t i = 0; i < s.num_devices(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const Vec2 oi = s.device(i).pos;
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      const double reach = s.charger_type(q).d_max + geom::kCoverEps;
      for (const Vec2 p : singleton_candidate_positions(s, q, i, opt)) {
        EXPECT_LE(geom::distance(p, oi), reach);
      }
      for (std::size_t j : index.query_radius(oi, 2.0 * reach)) {
        if (j <= i) continue;
        for (const Vec2 p : pair_candidate_positions(s, q, i, j, opt)) {
          EXPECT_LE(geom::distance(p, oi), reach);
          EXPECT_LE(geom::distance(p, s.device(j).pos), reach);
          ++pair_positions;
        }
      }
    }
    for (const Candidate& c : extract_device_task(s, index, i, opt)) {
      EXPECT_LE(geom::distance(c.strategy.pos, oi),
                s.charger_type(c.strategy.type).d_max + geom::kCoverEps);
    }
  }
  EXPECT_GT(pair_positions, 0u);
  EXPECT_GT(expect_tasks_match(s), 0u);
}

TEST(ReferenceOracle, SectorBoundarySlack) {
  // Two devices at equal distance d from the charger, α + δ apart: at the
  // orientation that puts o_0 on the clockwise boundary, o_1 sits δ past
  // the other boundary. The sweep's own gate allows 1e-9 rad there and
  // Eq. (1)'s sector test allows kCoverEps/d; o_1 must stay out whenever
  // δ exceeds either slack, so the two orientations keep separate rows.
  const double alpha = geom::kPi / 2.0;
  struct Case {
    double d;
    double delta;
  };
  // d = 2: the sweep's 1e-9 gate is the tighter one. d = 1000: the
  // sector test's kCoverEps/d = 1e-10 is.
  for (const Case c : {Case{2.0, 2e-8}, Case{1000.0, 5e-10}}) {
    SCOPED_TRACE(c.d);
    auto cfg = test::simple_config();
    cfg.charger_types = {{alpha, 1.0, 1.5 * c.d}};
    cfg.region.hi = {4.0 * c.d, 4.0 * c.d};
    const Vec2 p{2.0 * c.d, 2.0 * c.d};
    const Vec2 o1 = p + geom::unit_vector(alpha + c.delta) * c.d;
    cfg.devices = {test::device_at(p.x + c.d, p.y),
                   test::device_at(o1.x, o1.y)};
    const model::Scenario s(std::move(cfg));
    const std::vector<std::size_t> pool{0, 1};
    const auto got = extract_point_case(s, 0, p, pool);
    expect_byte_equal(got, reference_point_case(s, 0, p, pool));
    EXPECT_EQ(got.size(), 2u);
  }
}

TEST(ReferenceOracle, PointCaseAtRandomPositions) {
  // The public per-position wrapper, without a LOS memo, over the full
  // device list as the pool.
  const auto s = test::small_paper_scenario(31, 2, 1);
  std::vector<std::size_t> all(s.num_devices());
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;
  hipo::Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec2 pos{rng.uniform(0, 40), rng.uniform(0, 40)};
    const std::size_t q = rng.below(s.num_charger_types());
    SCOPED_TRACE(trial);
    expect_byte_equal(extract_point_case(s, q, pos, all),
                      reference_point_case(s, q, pos, all));
  }
}

/// Point case at each position against the reference, over every device;
/// returns how many gate decisions took the exact band.
std::size_t expect_point_cases_match(const model::Scenario& s,
                                     const std::vector<Vec2>& positions) {
  std::vector<std::size_t> all(s.num_devices());
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;
  PointSweep sweep;
  for (std::size_t k = 0; k < positions.size(); ++k) {
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      SCOPED_TRACE("position " + std::to_string(k) + " type " +
                   std::to_string(q));
      expect_byte_equal(extract_point_case(s, q, positions[k], all),
                        reference_point_case(s, q, positions[k], all));
      sweep.gather(s, q, positions[k], all);
    }
  }
  return sweep.exact_band();
}

TEST(ReferenceOracle, ChargersOnReceivingSectorEdges) {
  // Chargers a few ulp either side of a device's receiving-sector edge
  // φ ± α_o/2, and of the edge plus Eq. (1)'s slack kCoverEps/d, at
  // distances either side of the cone gate's near cut-off (d_min = 0 on
  // the second charger type). Sector half-angles include one within the
  // gate's band of π, and one device faces past the facing-vector bound.
  auto cfg = test::simple_config();
  cfg.charger_types = {{geom::kPi / 2.0, 1.0, 5.0},
                       {geom::kPi / 3.0, 0.0, 4.0}};
  cfg.device_types = {{geom::kPi / 3.0}, {geom::kTwoPi - 1e-6}, {1.0}};
  cfg.pair_params = {{100.0, 40.0}, {90.0, 35.0}, {80.0, 30.0},
                     {70.0, 25.0}, {60.0, 20.0}, {50.0, 15.0}};
  cfg.charger_counts = {1, 1};
  cfg.devices = {test::device_at(6, 6, 0.3, 0),
                 test::device_at(14, 6, 2.0, 1),
                 test::device_at(10, 14, 4.5, 2),
                 test::device_at(7, 12, 1e7, 0)};
  const model::Scenario s(std::move(cfg));
  std::vector<Vec2> positions;
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    const auto& dev = s.device(j);
    const double half = s.device_type(dev.type).angle / 2.0;
    for (const double d : {0.05, 0.19, 0.2, 0.21, 1.0, 3.0, 3.99}) {
      for (const double edge : {half, half + geom::kCoverEps / d}) {
        for (int k = -3; k <= 3; ++k) {
          for (const double sign : {1.0, -1.0}) {
            const double a = dev.orientation + sign * test::ulps(edge, k);
            const Vec2 p = dev.pos + geom::unit_vector(a) * d;
            if (s.position_feasible(p)) positions.push_back(p);
          }
        }
      }
    }
  }
  ASSERT_GT(positions.size(), 500u);
  EXPECT_GT(expect_point_cases_match(s, positions), 0u);
}

TEST(ReferenceOracle, ChargersOnTheRangeRingsOfBothAnchors) {
  // Chargers where a d_min or d_max ring of one anchor crosses one of the
  // other anchor's, each coordinate nudged by a few ulp, then the whole
  // extraction (whose ring × ring positions sit on these rings too).
  auto cfg = test::simple_config();
  cfg.device_types = {{geom::kPi / 2.0}, {geom::kTwoPi}};
  cfg.pair_params = {{100.0, 40.0}, {90.0, 35.0}};
  cfg.devices = {test::device_at(8, 9, 0.0, 1),
                 test::device_at(12, 10, 3.0, 0),
                 test::device_at(10, 13, -1.5, 1),
                 test::device_at(9.5, 5.5)};
  const model::Scenario s(std::move(cfg));
  const auto& ct = s.charger_type(0);
  std::vector<Vec2> positions;
  for (std::size_t a = 0; a < s.num_devices(); ++a) {
    for (std::size_t b = a + 1; b < s.num_devices(); ++b) {
      for (const double ra : {ct.d_min, ct.d_max}) {
        for (const double rb : {ct.d_min, ct.d_max}) {
          for (const Vec2 x : geom::circle_circle_intersections(
                   {s.device(a).pos, ra}, {s.device(b).pos, rb})) {
            for (int kx = -2; kx <= 2; ++kx) {
              for (int ky = -2; ky <= 2; ++ky) {
                positions.push_back({test::ulps(x.x, kx), test::ulps(x.y, ky)});
              }
            }
          }
        }
      }
    }
  }
  ASSERT_GT(positions.size(), 100u);
  EXPECT_GT(expect_point_cases_match(s, positions), 0u);
  EXPECT_GT(expect_tasks_match(s), 0u);
}

bool covers_pair(const std::vector<Candidate>& pool) {
  return std::any_of(pool.begin(), pool.end(), [](const Candidate& c) {
    return c.covered == std::vector<std::size_t>{0, 1};
  });
}

TEST(SectorRays, FindTheOnlyJointCoverOnAReceivingSectorSide) {
  // A full-circle charger (no inscribed arcs), d ∈ [1, 5]. o_0 receives
  // within ±15° of +x; omni o_1 sits δ short of d_max from o_0's upper
  // sector side, so its range disk cuts a sliver off o_0's receiving
  // sector. The sliver's corners are where that side crosses o_1's outer
  // ring, and it spans no ring radius of o_0, so no pair-line, ring × ring
  // or singleton position falls inside it: only the sector-side family
  // finds a charger that covers both devices.
  auto cfg = test::simple_config();
  cfg.charger_types = {{geom::kTwoPi, 1.0, 5.0}};
  cfg.device_types = {{geom::kPi / 6.0}, {geom::kTwoPi}};
  cfg.pair_params = {{100.0, 40.0}, {100.0, 40.0}};
  cfg.charger_counts = {1};
  const Vec2 a{4.0, 4.0};
  cfg.devices = {test::device_at(a.x, a.y, 0.0, 0)};
  const auto radii = ring_radii(model::Scenario(model::Scenario::Config(cfg)),
                                0, 0);

  // The widest gap between o_0's ring radii hosts the sliver.
  std::size_t gap = 1;
  for (std::size_t k = 1; k < radii.size(); ++k) {
    if (radii[k] - radii[k - 1] > radii[gap] - radii[gap - 1]) gap = k;
  }
  const double delta = 1e-4;
  const double half_chord = std::sqrt(25.0 - (5.0 - delta) * (5.0 - delta));
  ASSERT_GT(radii[gap] - radii[gap - 1], 4.0 * half_chord);
  const double t = 0.5 * (radii[gap - 1] + radii[gap]);
  const Vec2 side = geom::unit_vector(geom::kPi / 12.0);
  const Vec2 outward = geom::unit_vector(geom::kPi / 12.0 + geom::kPi / 2.0);
  const Vec2 b = a + side * t + outward * (5.0 - delta);
  cfg.devices.push_back(test::device_at(b.x, b.y, 0.0, 1));
  const model::Scenario s(std::move(cfg));

  EXPECT_TRUE(covers_pair(extract_all(s).candidates));
  ExtractOptions no_rays;
  no_rays.use_sector_rays = false;
  EXPECT_FALSE(covers_pair(extract_all(s, no_rays).candidates));
}

/// Same positions, orientations, covered sets and powers, row for row.
bool same_rows(const std::vector<Candidate>& a,
               const std::vector<Candidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Candidate& x, const Candidate& y) {
                      return x.strategy.pos == y.strategy.pos &&
                             x.strategy.orientation == y.strategy.orientation &&
                             x.covered == y.covered && x.powers == y.powers;
                    });
}

/// Distance from p to the boundary of polygon h.
double boundary_distance(Vec2 p, const geom::Polygon& h) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < h.size(); ++e) {
    best = std::min(best, geom::point_segment_distance(p, h.edge(e)));
  }
  return best;
}

TEST(ExtractDeviceTask, OutputDependsOnlyOnGeometryWithinTaskReach) {
  // 100 devices, half of them directional, and four obstacles on a 60 m
  // square with d_max = 5. After a move with a new orientation, an
  // obstacle add and an obstacle remove, every task whose device lies
  // farther than task_reach from the changed geometry re-extracts to the
  // same bytes. The band between task_reach and 4·d_max must be populated,
  // or the test could not tell a 2·d_max reach from a wider one.
  auto cfg = test::simple_config();
  cfg.region.hi = {60.0, 60.0};
  cfg.device_types = {{geom::kTwoPi}, {geom::kPi / 2.0}};
  cfg.pair_params = {{100.0, 40.0}, {90.0, 35.0}};
  cfg.obstacles = {geom::make_rect({12.0, 40.0}, {16.0, 44.0}),
                   geom::make_rect({40.0, 12.0}, {45.0, 14.0}),
                   geom::make_rect({22.0, 24.0}, {25.0, 30.0}),
                   geom::make_rect({44.0, 44.0}, {47.0, 49.0})};
  const geom::Polygon added = geom::make_rect({33.0, 28.0}, {36.0, 31.0});
  hipo::Rng rng(21);
  while (cfg.devices.size() < 100) {
    const Vec2 p{rng.uniform(0.5, 59.5), rng.uniform(0.5, 59.5)};
    bool clear = !added.contains(p) && boundary_distance(p, added) > 0.5;
    for (const auto& h : cfg.obstacles) clear = clear && !h.contains(p);
    if (!clear) continue;
    cfg.devices.push_back(test::device_at(p.x, p.y,
                                          rng.uniform(0.0, geom::kTwoPi),
                                          cfg.devices.size() % 2));
  }
  const model::Scenario before{model::Scenario::Config(cfg)};
  const double reach = task_reach(before);
  const double d_max = before.max_charge_range();
  ASSERT_DOUBLE_EQ(reach, 2.0 * d_max + 1e-3);
  const ExtractOptions opt;
  const auto before_index = device_index(before);
  std::vector<std::vector<Candidate>> cold(before.num_devices());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    cold[i] = extract_device_task(before, before_index, i, opt);
  }

  struct Change {
    const char* label;
    model::Scenario::Config cfg;
    std::vector<Vec2> points;
    std::vector<geom::Polygon> polygons;
  };
  std::vector<Change> changes;
  {
    // The device nearest the centre moves 3 m and turns.
    std::size_t k = 0;
    for (std::size_t i = 1; i < cfg.devices.size(); ++i) {
      if (geom::distance(cfg.devices[i].pos, {30.0, 30.0}) <
          geom::distance(cfg.devices[k].pos, {30.0, 30.0})) {
        k = i;
      }
    }
    Change move{"move", cfg, {cfg.devices[k].pos}, {}};
    model::Device& d = move.cfg.devices[k];
    d.pos = d.pos + Vec2{3.0, 0.0};
    d.orientation += 2.0;
    move.points.push_back(d.pos);
    changes.push_back(std::move(move));
  }
  {
    Change add{"add obstacle", cfg, {}, {added}};
    add.cfg.obstacles.push_back(added);
    changes.push_back(std::move(add));
  }
  {
    Change remove{"remove obstacle", cfg, {}, {cfg.obstacles[2]}};
    remove.cfg.obstacles.erase(remove.cfg.obstacles.begin() + 2);
    changes.push_back(std::move(remove));
  }

  for (Change& change : changes) {
    SCOPED_TRACE(change.label);
    const model::Scenario after(std::move(change.cfg));
    const auto after_index = device_index(after);
    std::size_t banded = 0;
    std::size_t changed_inside = 0;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      const Vec2 oi = after.device(i).pos;
      double dist = std::numeric_limits<double>::infinity();
      for (const Vec2 p : change.points) {
        dist = std::min(dist, geom::distance(oi, p));
      }
      for (const auto& h : change.polygons) {
        dist = std::min(dist, boundary_distance(oi, h));
      }
      const auto warm = extract_device_task(after, after_index, i, opt);
      if (dist <= reach) {
        changed_inside += !same_rows(warm, cold[i]);
        continue;
      }
      SCOPED_TRACE("task " + std::to_string(i));
      banded += dist <= 4.0 * d_max;
      expect_byte_equal(warm, cold[i]);
    }
    EXPECT_GE(banded, 10u);
    EXPECT_GT(changed_inside, 0u);
  }
}

}  // namespace
}  // namespace hipo::pdcs
