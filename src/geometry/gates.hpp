// Fast forms of the point-case coverage gates: Eq. (1)'s range condition
// (d_min/d_max), its receiving-sector condition, and the reach test that
// keeps candidate positions near their anchors.
//
// Each exact gate compares a `hypot` distance or an `atan2` angle with a
// boundary. The fast forms decide from the squared distance and from a dot
// product against precomputed cosines, and answer kExact inside a thin band
// around each boundary, where the caller runs the exact expression. Outside
// the band neither form's rounding (a few ulp of the distance, ~1e-7 rad of
// the angle at worst) can reach the boundary, so every fast decision equals
// the exact one. NaN inputs land in the band.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/geometry/angles.hpp"
#include "src/geometry/vec2.hpp"

namespace hipo::geom {

enum class Gate : unsigned char { kFail, kPass, kExact };

/// Relative band around a squared boundary r²: d² within r²·(1 ± kDist2Band)
/// goes to the exact test. The squared distance and hypot differ by a few
/// ulp (~1e-15 relative), far inside it.
inline constexpr double kDist2Band = 1e-12;
/// Angular band (radians) around a receiving-sector boundary. A cosine
/// rounded by ε moves the angle by at most π·sqrt(ε/2) ≈ 1e-7 rad for the
/// few-ulp ε of the dot product, below kConeBand / 2.
inline constexpr double kConeBand = 1e-6;
/// Distance from which the cone gate may fail a device: from here on the
/// exact test's slack kCoverEps / d is at most kConeBand / 2, so the band
/// still holds the slack plus the rounding.
inline constexpr double kConeNear = 2.0 * kCoverEps / kConeBand;
/// Largest |orientation| whose facing vector the cone gate uses. The exact
/// test subtracts the orientation from a bearing, which rounds by
/// ~|orientation|·1e-16 rad (1e-10 rad here); beyond this bound a device
/// always takes the exact path.
inline constexpr double kFacingMaxAngle = 1e6;

/// The ring test `inner <= d <= outer` on d = hypot(v), decided from
/// d2 = v.norm2(). Its boundary strictness is left to the exact test, which
/// decides every d2 within kDist2Band of inner² or outer². inner <= 0 means
/// no inner bound. A boundary whose square is not a normal double is left
/// to the exact test too.
class RingGate {
 public:
  RingGate(double inner, double outer) {
    if (inner > 0.0) {
      const double in2 = inner * inner;
      if (std::isnormal(in2)) {
        fail_below_ = in2 * (1.0 - kDist2Band);
        pass_above_ = in2 * (1.0 + kDist2Band);
      } else {
        pass_above_ = kInf;
      }
    }
    const double out2 = outer * outer;
    if (std::isnormal(out2)) {
      pass_below_ = out2 * (1.0 - kDist2Band);
      fail_above_ = out2 * (1.0 + kDist2Band);
    }
  }

  Gate operator()(double d2) const {
    if (d2 < fail_below_ || d2 > fail_above_) return Gate::kFail;
    if (d2 > pass_above_ && d2 < pass_below_) return Gate::kPass;
    return Gate::kExact;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double fail_below_ = -1.0;  // d2 below: d < inner
  double pass_above_ = -1.0;  // d2 above: d > inner
  double pass_below_ = -1.0;  // d2 below: d < outer
  double fail_above_ = kInf;  // d2 above: d > outer
};

/// PositionSink's reach test `distance(p, anchor) <= reach`.
inline RingGate reach_gate(double reach) { return RingGate(0.0, reach); }

/// Eq. (1)'s range gate as the point case states it: a device at distance
/// d fails when d < d_min − kCoverEps, d > d_max + kCoverEps or
/// d <= kEps (coincident positions have no angles).
inline RingGate range_gate(double d_min, double d_max) {
  return RingGate(std::max(d_min - kCoverEps, kEps), d_max + kCoverEps);
}

/// The receiving-sector test `angle_distance(atan2(v), φ) <= half +
/// kCoverEps / |v|` for a sector of half-angle `half` facing u = (cos φ,
/// sin φ), decided from dot(v, u) against |v|·cos(half ∓ kConeBand). A
/// full-circle sector has no test; callers skip the gate for it.
class ConeGate {
 public:
  explicit ConeGate(double half) {
    if (half > kConeBand) pass_cos_ = std::cos(half - kConeBand);
    if (half + kConeBand < kPi) fail_cos_ = std::cos(half + kConeBand);
  }

  /// `v` points from the sector's apex to the tested point, d2 = v.norm2().
  Gate operator()(Vec2 v, double d2, Vec2 facing) const {
    const double dot = v.dot(facing);
    const double len = std::sqrt(d2);
    if (dot > len * pass_cos_) return Gate::kPass;
    if (dot < len * fail_cos_ && d2 >= kConeNear * kConeNear) {
      return Gate::kFail;
    }
    return Gate::kExact;
  }

 private:
  double pass_cos_ = 2.0;   // cos(half − kConeBand); never when half is tiny
  double fail_cos_ = -2.0;  // cos(half + kConeBand); never near a half-turn
};

/// The facing unit vector ConeGate reads for orientation φ: NaN components
/// (every test in the band) past kFacingMaxAngle.
inline Vec2 facing_vector(double orientation) {
  if (!(std::abs(orientation) <= kFacingMaxAngle)) {
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  return unit_vector(orientation);
}

}  // namespace hipo::geom
