// Angle normalization and counter-clockwise angular intervals on the circle.
//
// Angular intervals are the workhorse of two subsystems:
//   * the per-device ShadowMap (blocked direction ranges behind obstacles);
//   * the PDCS point-case rotational sweep (Algorithm 1), whose events are
//     interval endpoints of "orientation ranges that keep device o covered".
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace hipo::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Shared tolerance of the angle-interval algebra: membership tests, the
/// linear-segment merge glue, and the wrap re-join all use this one value,
/// so `contains(end())` holds and set operations agree with per-interval
/// membership at wrap points. ~4500 ulp at 2π — far above the rounding of
/// norm_angle/ccw_delta (a few ulp), far below any geometric feature.
inline constexpr double kAngleEps = 1e-12;

/// Normalize to [0, 2π). Defined inline, like angle_distance: the
/// point-case sweep calls both tens of millions of times per extraction.
inline double norm_angle(double a) {
  // fmod is exact and returns `a` itself when |a| < 2π, so skipping the
  // call there changes no bits. The difference of two normalized angles —
  // every angle_distance of the point-case sweep — always takes this path.
  if (!(std::abs(a) < kTwoPi)) a = std::fmod(a, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  // fmod can return exactly 2π after the correction when a was a tiny
  // negative number; fold it back.
  if (a >= kTwoPi) a = 0.0;
  return a;
}

/// Counter-clockwise distance from `from` to `to`, in [0, 2π).
double ccw_delta(double from, double to);

/// Smallest absolute angular difference, in [0, π].
inline double angle_distance(double a, double b) {
  const double d = norm_angle(a - b);
  return std::min(d, kTwoPi - d);
}

/// A counter-clockwise interval on the circle: all angles reachable from
/// `start` by rotating CCW at most `width`. `width` in [0, 2π]; width == 2π
/// is the full circle.
struct AngleInterval {
  double start = 0.0;  // normalized to [0, 2π)
  double width = 0.0;

  AngleInterval() = default;
  AngleInterval(double start_, double width_);

  /// Interval from `a` CCW to `b`.
  static AngleInterval from_to(double a, double b);
  static AngleInterval full();

  bool is_full() const { return width >= kTwoPi; }
  bool empty(double eps = 0.0) const { return width <= eps; }
  double end() const;  // normalized end angle
  double mid() const;  // normalized midpoint

  bool contains(double angle, double eps = kAngleEps) const;
};

/// A set of disjoint angular intervals (canonical form: sorted by start,
/// non-overlapping, merged). Supports the union/complement/intersection
/// algebra needed for shadow maps and coverage sweeps.
class AngleIntervalSet {
 public:
  AngleIntervalSet() = default;
  explicit AngleIntervalSet(const AngleInterval& iv) { insert(iv); }

  void insert(const AngleInterval& iv);
  void insert_from_to(double a, double b) {
    insert(AngleInterval::from_to(a, b));
  }

  bool contains(double angle, double eps = kAngleEps) const;
  bool empty() const { return intervals_.empty(); }
  bool is_full() const;
  /// Total angular measure, in [0, 2π].
  double measure() const;

  AngleIntervalSet complement() const;
  AngleIntervalSet intersect(const AngleIntervalSet& other) const;
  AngleIntervalSet unite(const AngleIntervalSet& other) const;

  /// Canonical disjoint intervals, each with start in [0, 2π) (an interval
  /// may wrap past 2π; its width still <= 2π).
  const std::vector<AngleInterval>& intervals() const { return intervals_; }

 private:
  void canonicalize();
  std::vector<AngleInterval> intervals_;
};

}  // namespace hipo::geom
