#include "src/fuzz/oracles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "src/core/solver.hpp"
#include "src/geometry/angles.hpp"
#include "src/geometry/sector_ring.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/delta.hpp"
#include "src/opt/exhaustive.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/pdcs/point_case.hpp"
#include "src/shard/plan.hpp"
#include "src/shard/runner.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::fuzz {

using geom::AngleInterval;
using geom::Segment;
using geom::Vec2;
using model::Scenario;
using model::Strategy;

namespace {

/// Full-precision doubles in violation details so every reported case is
/// reproducible from the message alone.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt(Vec2 v) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "(%.17g, %.17g)", v.x, v.y);
  return buf;
}

std::optional<Violation> fail(const char* oracle, const std::string& detail) {
  return Violation{oracle, detail};
}

/// Ambiguity band for differential membership checks: a probe within this
/// distance of a geometric boundary is legitimately undecidable under the
/// library's epsilon-tolerant predicates and is skipped, so every reported
/// mismatch is a decidable case the two implementations genuinely disagree
/// on. Chosen an order of magnitude above kCoverEps (1e-7).
constexpr double kBand = 1e-6;

/// Total ring count across all ladders — extraction cost is superlinear in
/// it, so extraction-based oracles skip adversarial tiny-ε₁ instances.
std::size_t total_rings(const Scenario& s) {
  std::size_t n = 0;
  for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
    for (std::size_t t = 0; t < s.num_device_types(); ++t) {
      n += s.ladder(q, t).num_rings();
    }
  }
  return n;
}

bool extraction_tractable(const Scenario& s) {
  return total_rings(s) <= 600 && s.num_devices() <= 12;
}

/// Reference LOS blockage: the documented exact predicate, scanning every
/// polygon (the pre-acceleration formulation the index must reproduce).
bool brute_blocked(const Scenario& s, const Segment& seg) {
  for (const auto& h : s.obstacles()) {
    if (h.blocks_segment(seg)) return true;
  }
  return false;
}

bool brute_inside(const Scenario& s, Vec2 p) {
  for (const auto& h : s.obstacles()) {
    if (h.contains(p)) return true;
  }
  return false;
}

/// Probe points that matter to the obstacle predicates: devices, obstacle
/// vertices, edge midpoints, centroids, and uniform points (slightly
/// inflated past the region so out-of-bounds handling is probed too).
std::vector<Vec2> probe_points(const Scenario& s, Rng& rng, int n_random) {
  std::vector<Vec2> pts;
  for (const auto& d : s.devices()) pts.push_back(d.pos);
  for (const auto& h : s.obstacles()) {
    for (std::size_t e = 0; e < h.size(); ++e) {
      pts.push_back(h.vertices()[e]);
      pts.push_back(h.edge(e).point_at(0.5));
    }
    pts.push_back(h.centroid());
  }
  const Vec2 ext = s.region().extent();
  for (int i = 0; i < n_random; ++i) {
    pts.push_back({rng.uniform(s.region().lo.x - 0.1 * ext.x,
                               s.region().hi.x + 0.1 * ext.x),
                   rng.uniform(s.region().lo.y - 0.1 * ext.y,
                               s.region().hi.y + 0.1 * ext.y)});
  }
  return pts;
}

std::vector<std::size_t> all_device_indices(const Scenario& s) {
  std::vector<std::size_t> pool(s.num_devices());
  for (std::size_t j = 0; j < pool.size(); ++j) pool[j] = j;
  return pool;
}

/// A feasible probe position, or nullopt after bounded rejection sampling.
std::optional<Vec2> feasible_position(const Scenario& s, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Vec2 p{rng.uniform(s.region().lo.x, s.region().hi.x),
                 rng.uniform(s.region().lo.y, s.region().hi.y)};
    if (s.position_feasible(p)) return p;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> check_line_of_sight(const Scenario& scenario,
                                             std::uint64_t seed) {
  Rng rng(seed_combine(seed, 0x105));
  const auto pts = probe_points(scenario, rng, 24);

  // Containment: indexed point_in_any vs. brute scan, bit-for-bit.
  for (const Vec2 p : pts) {
    const bool fast = scenario.obstacle_index().point_in_any(p);
    const bool ref = brute_inside(scenario, p);
    if (fast != ref) {
      return fail("line_of_sight",
                  "point_in_any mismatch at " + fmt(p) + ": index says " +
                      (fast ? "inside" : "outside") + ", brute scan says " +
                      (ref ? "inside" : "outside"));
    }
  }

  // Blockage: segments between interesting points plus random chords.
  std::vector<Segment> segs;
  for (int i = 0; i < 96; ++i) {
    segs.emplace_back(pts[rng.below(pts.size())], pts[rng.below(pts.size())]);
  }
  for (std::size_t i = 0; i + 1 < scenario.num_devices(); ++i) {
    segs.emplace_back(scenario.device(i).pos, scenario.device(i + 1).pos);
  }
  for (const Segment& seg : segs) {
    const bool fast = scenario.obstacle_index().segment_blocked(seg);
    const bool ref = brute_blocked(scenario, seg);
    if (fast != ref) {
      return fail("line_of_sight",
                  "segment_blocked mismatch on " + fmt(seg.a) + " -- " +
                      fmt(seg.b) + ": index says " +
                      (fast ? "blocked" : "clear") + ", brute scan says " +
                      (ref ? "blocked" : "clear"));
    }
    // line_of_sight must be the exact negation over the same index.
    if (scenario.line_of_sight(seg.a, seg.b) == fast) {
      return fail("line_of_sight",
                  "line_of_sight is not the negation of segment_blocked on " +
                      fmt(seg.a) + " -- " + fmt(seg.b));
    }
  }
  return std::nullopt;
}

namespace {

/// Angle-interval invariants: an interval contains its own boundary angles
/// under the default tolerance, and interval-set algebra agrees with
/// per-interval membership away from epsilon bands. These are the exact
/// wrap-point properties the ShadowMap and the Algorithm 1 sweep rely on.
std::optional<Violation> check_angle_intervals(Rng& rng) {
  for (int trial = 0; trial < 48; ++trial) {
    const double start = rng.uniform(-geom::kTwoPi, 2.0 * geom::kTwoPi);
    const double width = rng.uniform(0.0, geom::kTwoPi);
    const AngleInterval iv(start, width);
    if (iv.width <= 0.0) continue;
    if (!iv.contains(iv.start)) {
      return fail("coverage", "AngleInterval(" + fmt(iv.start) + ", " +
                                  fmt(iv.width) +
                                  ") does not contain its own start");
    }
    if (!iv.contains(iv.end())) {
      return fail("coverage", "AngleInterval(" + fmt(iv.start) + ", " +
                                  fmt(iv.width) +
                                  ") does not contain its own end() = " +
                                  fmt(iv.end()));
    }
    // Union with an abutting interval: membership at the exact seam must be
    // preserved (this is where contains() and to_linear splitting must share
    // one epsilon convention).
    const AngleInterval next(iv.end(), rng.uniform(0.1, 1.0));
    geom::AngleIntervalSet set;
    set.insert(iv);
    set.insert(next);
    if (!set.contains(iv.end())) {
      return fail("coverage",
                  "interval-set union lost the seam angle " + fmt(iv.end()) +
                      " shared by [" + fmt(iv.start) + " w=" + fmt(iv.width) +
                      "] and [" + fmt(next.start) + " w=" + fmt(next.width) +
                      "]");
    }
    // Complement partition away from boundaries.
    const auto comp = set.complement();
    for (int probe = 0; probe < 16; ++probe) {
      const double t = rng.angle();
      bool near_boundary = false;
      const std::array<const geom::AngleIntervalSet*, 2> sides{&set, &comp};
      for (const geom::AngleIntervalSet* s : sides) {
        for (const auto& i : s->intervals()) {
          if (geom::angle_distance(t, i.start) < 1e-9 ||
              geom::angle_distance(t, i.end()) < 1e-9) {
            near_boundary = true;
          }
        }
      }
      if (near_boundary) continue;
      if (set.contains(t) == comp.contains(t)) {
        return fail("coverage",
                    "complement does not partition the circle at angle " +
                        fmt(t));
      }
    }
  }
  return std::nullopt;
}

/// SectorRing membership vs. a from-scratch reference, Monte-Carlo.
std::optional<Violation> check_sector_rings(const Scenario& scenario,
                                            Rng& rng) {
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t q = rng.below(scenario.num_charger_types());
    const auto pos = feasible_position(scenario, rng);
    if (!pos) continue;
    const Strategy s{*pos, rng.angle(), q};
    const auto ring = scenario.charging_area(s);
    for (int probe = 0; probe < 48; ++probe) {
      const double r = rng.uniform(0.0, 1.3 * ring.r_max());
      const Vec2 p = ring.apex() + geom::unit_vector(rng.angle()) * r;
      const double d = geom::distance(p, ring.apex());
      if (d < kBand || std::abs(d - ring.r_min()) < kBand ||
          std::abs(d - ring.r_max()) < kBand) {
        continue;
      }
      bool ref = d >= ring.r_min() && d <= ring.r_max();
      if (ref && ring.angle() < geom::kTwoPi) {
        const double dev =
            geom::angle_distance((p - ring.apex()).angle(), s.orientation);
        if (std::abs(dev - ring.angle() / 2.0) * d < kBand) continue;
        ref = dev <= ring.angle() / 2.0;
      }
      if (ring.contains(p) != ref) {
        return fail("coverage",
                    "SectorRing::contains mismatch at " + fmt(p) +
                        " (apex " + fmt(ring.apex()) + ", orient " +
                        fmt(s.orientation) + ", angle " + fmt(ring.angle()) +
                        ", r in [" + fmt(ring.r_min()) + ", " +
                        fmt(ring.r_max()) + "]): contains=" +
                        (ring.contains(p) ? "true" : "false"));
      }
    }
  }
  return std::nullopt;
}

/// Point-case candidate soundness + sweep completeness at probe positions.
std::optional<Violation> check_candidates(const Scenario& scenario, Rng& rng) {
  const auto pool = all_device_indices(scenario);
  std::vector<Vec2> positions;
  for (int i = 0; i < 4; ++i) {
    if (const auto p = feasible_position(scenario, rng)) positions.push_back(*p);
  }
  // Midpoints between device pairs reach the multi-cover constructions.
  for (std::size_t i = 0; i + 1 < scenario.num_devices() && i < 4; ++i) {
    const Vec2 mid =
        (scenario.device(i).pos + scenario.device(i + 1).pos) * 0.5;
    if (scenario.position_feasible(mid)) positions.push_back(mid);
  }

  for (const Vec2 pos : positions) {
    for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
      const auto cands = pdcs::extract_point_case(scenario, q, pos, pool);

      // Soundness: every claimed (device, power) pair is real.
      for (const auto& c : cands) {
        if (!scenario.position_feasible(c.strategy.pos)) {
          return fail("coverage", "candidate at infeasible position " +
                                      fmt(c.strategy.pos));
        }
        if (c.covered.size() != c.powers.size() ||
            !std::is_sorted(c.covered.begin(), c.covered.end())) {
          return fail("coverage",
                      "candidate cover list malformed at " + fmt(pos));
        }
        for (std::size_t i = 0; i < c.covered.size(); ++i) {
          const double direct =
              scenario.approx_power(c.strategy, c.covered[i]);
          if (direct != c.powers[i]) {
            return fail(
                "coverage",
                "candidate at " + fmt(c.strategy.pos) + " orient " +
                    fmt(c.strategy.orientation) + " claims power " +
                    fmt(c.powers[i]) + " to device " +
                    std::to_string(c.covered[i]) +
                    " but Scenario::approx_power gives " + fmt(direct));
          }
        }
      }

      // Completeness: the covered set of any (unambiguous) probe
      // orientation must be contained in some candidate's covered set —
      // Algorithm 1's rotational sweep loses no coverage class.
      const double alpha = scenario.charger_type(q).angle;
      std::vector<double> probes;
      for (int i = 0; i < 8; ++i) probes.push_back(rng.angle());
      for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
        const Vec2 so = scenario.device(j).pos - pos;
        if (so.norm() > geom::kEps) probes.push_back(so.angle());
      }
      for (const double phi : probes) {
        const Strategy s{pos, phi, q};
        std::vector<std::size_t> covered;
        bool ambiguous = false;
        for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
          const Vec2 so = scenario.device(j).pos - pos;
          const double d = so.norm();
          if (d <= geom::kEps) continue;
          // Skip probes with any device near a distance or angular
          // boundary of Eq. (1) — membership there is epsilon-dependent.
          const auto& ct = scenario.charger_type(q);
          if (std::abs(d - ct.d_min) < kBand || std::abs(d - ct.d_max) < kBand)
            ambiguous = true;
          if (alpha < geom::kTwoPi &&
              std::abs(geom::angle_distance(so.angle(), phi) - alpha / 2.0) *
                      d < kBand)
            ambiguous = true;
          const double recv =
              scenario.device_type(scenario.device(j).type).angle;
          if (recv < geom::kTwoPi &&
              std::abs(geom::angle_distance((-so).angle(),
                                            scenario.device(j).orientation) -
                       recv / 2.0) * d < kBand)
            ambiguous = true;
          if (scenario.approx_power(s, j) > 0.0) covered.push_back(j);
        }
        if (ambiguous || covered.empty()) continue;
        const bool dominated = std::any_of(
            cands.begin(), cands.end(), [&](const pdcs::Candidate& c) {
              return std::includes(c.covered.begin(), c.covered.end(),
                                   covered.begin(), covered.end());
            });
        if (!dominated) {
          std::ostringstream os;
          os << "sweep at " << fmt(pos) << " (type " << q
             << ") misses orientation " << fmt(phi) << " covering {";
          for (std::size_t j : covered) os << j << ' ';
          os << "}: no candidate dominates it";
          return fail("coverage", os.str());
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> check_coverage(const Scenario& scenario,
                                        std::uint64_t seed) {
  Rng rng(seed_combine(seed, 0x207));
  if (auto v = check_angle_intervals(rng)) return v;
  if (auto v = check_sector_rings(scenario, rng)) return v;
  if (extraction_tractable(scenario)) {
    if (auto v = check_candidates(scenario, rng)) return v;
  }
  return std::nullopt;
}

std::optional<Violation> check_piecewise(const Scenario& scenario,
                                         std::uint64_t seed) {
  Rng rng(seed_combine(seed, 0x309));
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    for (std::size_t t = 0; t < scenario.num_device_types(); ++t) {
      const auto& lad = scenario.ladder(q, t);
      const auto tag = [&](double d) {
        return " (ladder q=" + std::to_string(q) + " t=" + std::to_string(t) +
               ", a=" + fmt(lad.a()) + " b=" + fmt(lad.b()) + " d_min=" +
               fmt(lad.d_min()) + " d_max=" + fmt(lad.d_max()) + " eps1=" +
               fmt(lad.eps1()) + ", d=" + fmt(d) + ")";
      };

      // Structure: rungs strictly ascending inside (d_min, d_max],
      // terminating exactly at d_max.
      const auto& outer = lad.outer_radii();
      if (outer.empty() || outer.back() != lad.d_max()) {
        return fail("piecewise", "ladder does not end at d_max" + tag(0.0));
      }
      for (std::size_t r = 0; r < outer.size(); ++r) {
        if (outer[r] <= lad.d_min() || outer[r] > lad.d_max() ||
            (r > 0 && outer[r] <= outer[r - 1])) {
          return fail("piecewise",
                      "rung radii not strictly ascending in (d_min, d_max]" +
                          tag(outer[r]));
        }
      }

      // Probe distances: every rung exactly, its float neighbors, the
      // domain boundaries, and uniform fill.
      std::vector<double> probes{lad.d_min(), lad.d_max()};
      const double inf = std::numeric_limits<double>::infinity();
      probes.push_back(std::nextafter(lad.d_min(), inf));
      probes.push_back(std::nextafter(lad.d_max(), -inf));
      for (double r : outer) {
        probes.push_back(r);
        probes.push_back(std::nextafter(r, -inf));
        probes.push_back(std::nextafter(r, inf));
      }
      for (int i = 0; i < 32; ++i) {
        probes.push_back(rng.uniform(lad.d_min(), lad.d_max()));
      }
      std::sort(probes.begin(), probes.end());

      double prev_power = inf;
      for (const double d : probes) {
        if (d < lad.d_min() || d > lad.d_max()) continue;
        const auto r = lad.ring_index(d);
        if (!r) {
          return fail("piecewise",
                      "ring_index has a gap inside [d_min, d_max]" + tag(d));
        }
        const double approx = lad.approx_power(d);
        if (approx != lad.ring_power(*r) || approx <= 0.0) {
          return fail("piecewise",
                      "approx_power disagrees with ring_power" + tag(d));
        }
        // Lemma 4.1, pointwise: 1 <= P/P̃ <= 1+ε₁. Tolerance 1e-11 is far
        // above honest evaluation rounding (~1e-14 relative) but below the
        // excess a dropped/misplaced boundary rung produces.
        const double ratio = lad.exact_power(d) / approx;
        if (ratio < 1.0 - 1e-11 ||
            ratio > (1.0 + lad.eps1()) * (1.0 + 1e-11)) {
          return fail("piecewise", "Lemma 4.1 ratio " + fmt(ratio) +
                                       " outside [1, 1+eps1]" + tag(d));
        }
        // P̃ must be non-increasing in d (ring powers descend outward).
        if (approx > prev_power * (1.0 + 1e-15)) {
          return fail("piecewise",
                      "approx_power not monotone non-increasing" + tag(d));
        }
        prev_power = approx;
      }

      // Just outside the domain the approximation must vanish.
      const double below = std::nextafter(lad.d_min(), -inf);
      if (below >= 0.0 && lad.ring_index(below).has_value()) {
        return fail("piecewise",
                    "ring_index defined below d_min" + tag(below));
      }
      if (lad.ring_index(std::nextafter(lad.d_max(), inf)).has_value()) {
        return fail("piecewise", "ring_index defined above d_max" +
                                     tag(std::nextafter(lad.d_max(), inf)));
      }
    }
  }
  return std::nullopt;
}

namespace {

std::uint64_t utility_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The greedy as a plain rescan argmax, the reference the library's lazy
/// heap must reproduce bit for bit: every pick recomputes the gain of every
/// untaken, matroid-feasible candidate on a non-incremental State (no heap,
/// no gain cache) and takes the strictly largest gain above kMinGain,
/// lowest index on exact ties. kPerType fills each charger type's budget in
/// type order; kLazyGlobal picks across every type with budget left.
opt::GreedyResult rescan_greedy(const Scenario& scenario,
                                std::span<const pdcs::Candidate> cands,
                                opt::GreedyMode mode) {
  const opt::ChargingObjective objective(scenario, cands);
  opt::ChargingObjective::State state(objective);
  const opt::PartitionMatroid matroid =
      opt::placement_matroid(scenario, cands);
  opt::PartitionMatroid::Tracker tracker(matroid);
  std::vector<bool> taken(cands.size(), false);
  opt::GreedyResult result;
  // One pick among the rows of `part` (of any part when none is given);
  // false when no eligible row has positive gain.
  const auto pick = [&](std::optional<std::size_t> part) {
    std::size_t best = cands.size();
    double best_gain = opt::kMinGain;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (taken[i] || !tracker.can_add(i) ||
          (part && matroid.part_of(i) != *part)) {
        continue;
      }
      const double g = state.gain(i);
      if (g > best_gain) {
        best = i;
        best_gain = g;
      }
    }
    if (best == cands.size()) return false;
    taken[best] = true;
    tracker.add(best);
    state.add(best);
    result.selected.push_back(best);
    result.placement.push_back(cands[best].strategy);
    return true;
  };
  if (mode == opt::GreedyMode::kPerType) {
    for (std::size_t q = 0; q < matroid.num_parts(); ++q) {
      while (pick(q)) {
      }
    }
  } else {
    while (pick(std::nullopt)) {
    }
  }
  result.approx_utility = state.value();
  result.exact_utility = scenario.placement_utility(result.placement);
  return result;
}

}  // namespace

std::optional<Violation> check_greedy_bound(const Scenario& scenario,
                                            std::uint64_t seed) {
  (void)seed;
  if (!extraction_tractable(scenario)) return std::nullopt;
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  if (cands.empty()) return std::nullopt;

  constexpr std::array kModes{opt::GreedyMode::kPerType,
                              opt::GreedyMode::kLazyGlobal};
  const auto name_of = [](opt::GreedyMode mode) {
    return std::string(mode == opt::GreedyMode::kPerType ? "per-type"
                                                         : "lazy-global");
  };
  // Every selection order must equal the plain rescan argmax bit for bit:
  // selection, approximated and exact utility.
  std::array<opt::GreedyResult, kModes.size()> runs;
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    runs[m] = opt::select_strategies(scenario, cands, kModes[m]);
    const auto want = rescan_greedy(scenario, cands, kModes[m]);
    if (runs[m].selected != want.selected ||
        utility_bits(runs[m].approx_utility) !=
            utility_bits(want.approx_utility) ||
        utility_bits(runs[m].exact_utility) !=
            utility_bits(want.exact_utility)) {
      return fail("greedy", name_of(kModes[m]) +
                                " greedy and the rescan argmax disagree "
                                "(selection or utility not bit-identical)");
    }
  }
  if (cands.size() > 20 || scenario.num_chargers() > 4) return std::nullopt;

  opt::ExactResult best;
  try {
    best = opt::exact_select(scenario, cands);
  } catch (const ConfigError&) {
    return std::nullopt;  // node cap exceeded — instance too big after all
  }
  const double opt_approx = best.result.approx_utility;

  const bool single_type = scenario.num_charger_types() == 1;
  // Locally greedy (per part) and global greedy both guarantee 1/2 for a
  // partition matroid [Fisher–Nemhauser–Wolsey]; a single part is a uniform
  // matroid where the classic 1−1/e factor applies.
  const double factor = single_type ? 1.0 - std::exp(-1.0) : 0.5;

  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const opt::GreedyResult& g = runs[m];
    const std::string name = name_of(kModes[m]);
    try {
      scenario.validate_placement(g.placement);
    } catch (const std::exception& e) {
      return fail("greedy", std::string("greedy (") + name +
                                ") produced an invalid placement: " +
                                e.what());
    }
    if (g.approx_utility > opt_approx + 1e-9) {
      return fail("greedy", std::string("greedy (") + name +
                                ") beat the exhaustive optimum: " +
                                fmt(g.approx_utility) + " > " +
                                fmt(opt_approx));
    }
    if (g.approx_utility < factor * opt_approx - 1e-9) {
      return fail("greedy",
                  std::string("greedy (") + name + ") utility " +
                      fmt(g.approx_utility) + " below the " +
                      (single_type ? "1-1/e" : "1/2") + " bound of optimum " +
                      fmt(opt_approx));
    }
    // Exact utility dominates approximated utility (P >= P̃, U monotone).
    if (g.exact_utility < g.approx_utility - 1e-9) {
      return fail("greedy", std::string("greedy (") + name +
                                ") exact utility " + fmt(g.exact_utility) +
                                " below its approx utility " +
                                fmt(g.approx_utility));
    }
    if (g.exact_utility < -1e-12 || g.exact_utility > 1.0 + 1e-12 ||
        g.approx_utility < -1e-12 || g.approx_utility > 1.0 + 1e-12) {
      return fail("greedy", std::string("greedy (") + name +
                                ") utility outside [0, 1]");
    }
    if (single_type) {
      // Theorem-style end-to-end chain on exact utilities:
      // U(greedy) >= f(greedy) >= (1−1/e)·f* >= (1−1/e)/(1+ε₁)·OPT_exact.
      const double chain =
          factor / (1.0 + scenario.eps1()) * best.result.exact_utility;
      if (g.exact_utility < chain - 1e-9) {
        return fail("greedy", std::string("greedy (") + name +
                                  ") exact utility " + fmt(g.exact_utility) +
                                  " below the (1-1/e)/(1+eps1) chain bound " +
                                  fmt(chain));
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_determinism(const Scenario& scenario,
                                           std::uint64_t seed) {
  (void)seed;
  if (!extraction_tractable(scenario)) return std::nullopt;

  core::SolveOptions opts;  // no pool
  const auto base = core::solve(scenario, opts);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    parallel::ThreadPool pool(workers);
    core::SolveOptions popts;
    popts.pool = &pool;
    const auto run = core::solve(scenario, popts);
    const auto diverged = [&](const std::string& what) {
      return fail("determinism",
                  what + " differs between no pool and " +
                      std::to_string(workers) + " worker(s)");
    };
    if (run.placement.size() != base.placement.size()) {
      return diverged("placement size");
    }
    for (std::size_t i = 0; i < run.placement.size(); ++i) {
      const auto& a = base.placement[i];
      const auto& b = run.placement[i];
      if (a.pos.x != b.pos.x || a.pos.y != b.pos.y ||
          a.orientation != b.orientation || a.type != b.type) {
        return diverged("strategy " + std::to_string(i));
      }
    }
    if (run.utility != base.utility ||
        run.approx_utility != base.approx_utility) {
      return diverged("utility");
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_delta(const Scenario& scenario,
                                     std::uint64_t seed) {
  if (!extraction_tractable(scenario)) return std::nullopt;
  Rng rng(seed_combine(seed, 0x40B));

  opt::DeltaSolver delta(scenario.to_config());

  // Reference: the cold pipeline over the mutated config, exactly the
  // defaults DeltaSolver runs warm (lazy-global, utility, flat CSR).
  const auto against_cold =
      [&](const std::string& when) -> std::optional<Violation> {
    const Scenario cold{model::Scenario::Config(delta.config())};
    const auto extraction = pdcs::extract_all(cold);
    const opt::CoverageMatrix matrix(
        std::span<const pdcs::Candidate>(extraction.candidates),
        cold.num_devices());
    if (!delta.matrix().same_as(matrix)) {
      return fail("delta", "warm coverage matrix not bit-identical to a "
                           "cold build " + when);
    }
    const auto ref = opt::select_strategies(cold, extraction.candidates,
                                            opt::GreedyMode::kLazyGlobal);
    const auto& warm = delta.result();
    if (warm.selected != ref.selected) {
      return fail("delta", "warm selection differs from cold solve " + when);
    }
    if (utility_bits(warm.approx_utility) != utility_bits(ref.approx_utility) ||
        utility_bits(warm.exact_utility) != utility_bits(ref.exact_utility)) {
      return fail("delta", "warm utilities not bit-identical to cold solve " +
                               when + ": approx " + fmt(warm.approx_utility) +
                               " vs " + fmt(ref.approx_utility) + ", exact " +
                               fmt(warm.exact_utility) + " vs " +
                               fmt(ref.exact_utility));
    }
    if (warm.placement.size() != ref.placement.size()) {
      return fail("delta", "warm placement size differs " + when);
    }
    for (std::size_t i = 0; i < warm.placement.size(); ++i) {
      const Strategy& a = warm.placement[i];
      const Strategy& b = ref.placement[i];
      if (utility_bits(a.pos.x) != utility_bits(b.pos.x) ||
          utility_bits(a.pos.y) != utility_bits(b.pos.y) ||
          utility_bits(a.orientation) != utility_bits(b.orientation) ||
          a.type != b.type) {
        return fail("delta", "warm strategy " + std::to_string(i) +
                                 " not bit-identical " + when + ": " +
                                 fmt(a.pos) + " vs " + fmt(b.pos));
      }
    }
    return std::nullopt;
  };

  if (auto v = against_cold("after warm construction")) return v;

  for (int step = 0; step < 5; ++step) {
    opt::DeltaOp op;
    bool ready = false;
    for (int attempt = 0; attempt < 16 && !ready; ++attempt) {
      op = opt::DeltaOp{};
      const auto& cfg = delta.config();
      switch (rng.below(5)) {
        case 0: {  // add_device (capped to keep extraction tractable)
          if (cfg.devices.size() >= 12) break;
          const auto pos = feasible_position(delta.scenario(), rng);
          if (!pos) break;
          op.kind = opt::DeltaOp::Kind::kAddDevice;
          op.device.pos = *pos;
          op.device.orientation = rng.angle();
          op.device.type = rng.below(cfg.device_types.size());
          op.device.p_th =
              cfg.devices.empty()
                  ? 0.05
                  : cfg.devices[rng.below(cfg.devices.size())].p_th;
          op.device.weight = 1.0;
          ready = true;
          break;
        }
        case 1: {  // remove_device
          if (cfg.devices.empty()) break;
          op.kind = opt::DeltaOp::Kind::kRemoveDevice;
          op.index = rng.below(cfg.devices.size());
          ready = true;
          break;
        }
        case 2: {  // move_device
          if (cfg.devices.empty()) break;
          const auto pos = feasible_position(delta.scenario(), rng);
          if (!pos) break;
          op.kind = opt::DeltaOp::Kind::kMoveDevice;
          op.index = rng.below(cfg.devices.size());
          op.pos = *pos;
          if (rng.below(2) == 0) {
            op.has_orientation = true;
            op.orientation = rng.angle();
          }
          ready = true;
          break;
        }
        case 3: {  // add_obstacle: a small rect not swallowing any device
          const auto center = feasible_position(delta.scenario(), rng);
          if (!center) break;
          const Vec2 ext = delta.scenario().region().extent();
          const double hx = rng.uniform(0.01, 0.05) * ext.x;
          const double hy = rng.uniform(0.01, 0.05) * ext.y;
          const std::vector<Vec2> rect = {{center->x - hx, center->y - hy},
                                          {center->x + hx, center->y - hy},
                                          {center->x + hx, center->y + hy},
                                          {center->x - hx, center->y + hy}};
          const geom::Polygon poly(rect);
          bool swallows = false;
          for (const auto& d : cfg.devices) {
            if (poly.contains_interior(d.pos)) {
              swallows = true;
              break;
            }
          }
          if (swallows) break;
          op.kind = opt::DeltaOp::Kind::kAddObstacle;
          op.obstacle = rect;
          ready = true;
          break;
        }
        case 4: {  // remove_obstacle
          if (cfg.obstacles.empty()) break;
          op.kind = opt::DeltaOp::Kind::kRemoveObstacle;
          op.index = rng.below(cfg.obstacles.size());
          ready = true;
          break;
        }
      }
    }
    if (!ready) continue;
    delta.apply(op);
    if (auto v = against_cold("after churn step " + std::to_string(step))) {
      return v;
    }
  }
  return std::nullopt;
}

std::span<const NamedOracle> all_oracles() {
  static constexpr std::array<NamedOracle, 8> kOracles{{
      {"line_of_sight", &check_line_of_sight},
      {"coverage", &check_coverage},
      {"piecewise", &check_piecewise},
      {"greedy", &check_greedy_bound},
      {"determinism", &check_determinism},
      {"delta", &check_delta},
      {"shard", &check_shard},
      {"parse", &check_parse},
  }};
  return kOracles;
}

std::optional<Violation> check_shard(const Scenario& scenario,
                                     std::uint64_t seed) {
  if (!extraction_tractable(scenario)) return std::nullopt;
  Rng rng(seed_combine(seed, 0x5A4D));

  const auto identical = [&](const pdcs::ExtractionResult& ref,
                             const pdcs::ExtractionResult& got,
                             std::size_t shards,
                             std::size_t devices) -> std::optional<Violation> {
    const std::string ctx = " (shards=" + std::to_string(shards) +
                            ", devices=" + std::to_string(devices) + ")";
    if (ref.raw_candidates != got.raw_candidates) {
      return fail("shard", "merged raw row count differs" + ctx + ": " +
                               std::to_string(got.raw_candidates) + " vs " +
                               std::to_string(ref.raw_candidates));
    }
    if (ref.per_type_counts != got.per_type_counts ||
        ref.candidates.size() != got.candidates.size()) {
      return fail("shard", "merged pool shape differs" + ctx);
    }
    for (std::size_t i = 0; i < ref.candidates.size(); ++i) {
      const auto& a = ref.candidates[i];
      const auto& b = got.candidates[i];
      if (a.strategy.type != b.strategy.type ||
          utility_bits(a.strategy.pos.x) != utility_bits(b.strategy.pos.x) ||
          utility_bits(a.strategy.pos.y) != utility_bits(b.strategy.pos.y) ||
          utility_bits(a.strategy.orientation) !=
              utility_bits(b.strategy.orientation)) {
        return fail("shard", "candidate " + std::to_string(i) +
                                 " strategy not bit-identical" + ctx + ": " +
                                 fmt(b.strategy.pos) + " vs " +
                                 fmt(a.strategy.pos));
      }
      if (a.covered != b.covered) {
        return fail("shard", "candidate " + std::to_string(i) +
                                 " covered set differs" + ctx);
      }
      for (std::size_t j = 0; j < a.powers.size(); ++j) {
        if (utility_bits(a.powers[j]) != utility_bits(b.powers[j])) {
          return fail("shard", "candidate " + std::to_string(i) + " power " +
                                   std::to_string(j) + " differs" + ctx +
                                   ": " + fmt(b.powers[j]) + " vs " +
                                   fmt(a.powers[j]));
        }
      }
    }
    return std::nullopt;
  };

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{7}}) {
    // Plan first so we know where the cell borders land, then pin extra
    // devices exactly on a border and exactly 2·d_max from one — pairs whose
    // Algorithm 4 neighbor set crosses a border.
    const shard::ShardPlan probe(scenario, {.shards = shards});
    model::Scenario::Config cfg = scenario.to_config();
    const geom::BBox region = scenario.region();
    const double range2 = 2.0 * scenario.max_charge_range();
    std::vector<geom::Vec2> pins;
    if (probe.grid_x() >= 2) {
      const double bx =
          region.lo.x + (region.hi.x - region.lo.x) /
                            static_cast<double>(probe.grid_x());
      const double y =
          rng.uniform(region.lo.y, region.hi.y);
      pins.push_back({bx, y});
      pins.push_back({bx - range2, rng.uniform(region.lo.y, region.hi.y)});
    }
    if (probe.grid_y() >= 2) {
      const double by =
          region.lo.y + (region.hi.y - region.lo.y) /
                            static_cast<double>(probe.grid_y());
      pins.push_back({rng.uniform(region.lo.x, region.hi.x), by});
      pins.push_back({rng.uniform(region.lo.x, region.hi.x), by + range2});
    }
    for (const auto p : pins) {
      if (!region.contains(p)) continue;
      bool inside = false;
      for (const auto& h : cfg.obstacles) {
        if (h.contains(p)) inside = true;
      }
      if (inside) continue;
      model::Device dev;
      dev.pos = p;
      dev.orientation = rng.angle();
      dev.type = rng.below(cfg.device_types.size());
      dev.p_th = cfg.devices.empty()
                     ? 0.05
                     : cfg.devices[rng.below(cfg.devices.size())].p_th;
      cfg.devices.push_back(dev);
    }
    const Scenario pinned(std::move(cfg));

    const auto reference = pdcs::extract_all(pinned);
    shard::RunnerOptions opt;
    opt.shards = shards;
    const auto merged = shard::extract_sharded(pinned, opt);
    if (auto v = identical(reference, merged, shards, pinned.num_devices())) {
      return v;
    }
  }
  return std::nullopt;
}

std::optional<Violation> run_oracle(const NamedOracle& oracle,
                                    const Scenario& scenario,
                                    std::uint64_t seed) {
  try {
    return oracle.fn(scenario, seed);
  } catch (const std::exception& e) {
    return Violation{oracle.name,
                     std::string("unhandled exception escaped the pipeline: ") +
                         e.what()};
  }
}

std::optional<Violation> run_all(const Scenario& scenario,
                                 std::uint64_t seed) {
  for (const auto& o : all_oracles()) {
    if (auto v = run_oracle(o, scenario, seed)) return v;
  }
  return std::nullopt;
}

}  // namespace hipo::fuzz
