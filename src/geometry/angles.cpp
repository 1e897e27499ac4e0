#include "src/geometry/angles.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace hipo::geom {

double ccw_delta(double from, double to) { return norm_angle(to - from); }

AngleInterval::AngleInterval(double start_, double width_)
    : start(norm_angle(start_)), width(width_) {
  HIPO_ASSERT_MSG(width_ >= 0.0 && width_ <= kTwoPi + 1e-12,
                  "interval width out of [0, 2π]");
  width = std::min(width, kTwoPi);
}

AngleInterval AngleInterval::from_to(double a, double b) {
  return AngleInterval(a, ccw_delta(a, b));
}

AngleInterval AngleInterval::full() { return AngleInterval(0.0, kTwoPi); }

double AngleInterval::end() const { return norm_angle(start + width); }

double AngleInterval::mid() const { return norm_angle(start + width / 2.0); }

bool AngleInterval::contains(double angle, double eps) const {
  if (is_full()) return true;
  // One ccw_delta evaluation; a delta within eps *below* start (i.e. near
  // 2π) folds to a small negative so both boundaries share one tolerance.
  // With the default eps this makes contains(end()) true even when the
  // normalization of end() rounds the delta a few ulp past width.
  double d = ccw_delta(start, angle);
  if (d >= kTwoPi - eps) d -= kTwoPi;
  return d <= width + eps;
}

namespace {

// Linear (non-wrapping) segments on [0, 2π]; the internal currency of the
// interval-set algebra.
using Seg = std::pair<double, double>;

std::vector<Seg> to_linear(const std::vector<AngleInterval>& ivs) {
  std::vector<Seg> segs;
  for (const auto& iv : ivs) {
    if (iv.width <= 0.0) continue;
    if (iv.is_full()) {
      return {{0.0, kTwoPi}};
    }
    const double end = iv.start + iv.width;
    if (end <= kTwoPi) {
      segs.emplace_back(iv.start, end);
    } else {
      segs.emplace_back(iv.start, kTwoPi);
      segs.emplace_back(0.0, end - kTwoPi);
    }
  }
  return segs;
}

std::vector<Seg> merge_linear(std::vector<Seg> segs) {
  std::sort(segs.begin(), segs.end());
  std::vector<Seg> out;
  for (const auto& s : segs) {
    if (!out.empty() && s.first <= out.back().second + kAngleEps) {
      out.back().second = std::max(out.back().second, s.second);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Seg> complement_linear(const std::vector<Seg>& segs) {
  std::vector<Seg> out;
  double cursor = 0.0;
  for (const auto& s : segs) {
    if (s.first > cursor) out.emplace_back(cursor, s.first);
    cursor = std::max(cursor, s.second);
  }
  if (cursor < kTwoPi) out.emplace_back(cursor, kTwoPi);
  return out;
}

std::vector<Seg> intersect_linear(const std::vector<Seg>& a,
                                  const std::vector<Seg>& b) {
  std::vector<Seg> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

}  // namespace

void AngleIntervalSet::insert(const AngleInterval& iv) {
  if (iv.width <= 0.0) return;
  intervals_.push_back(iv);
  canonicalize();
}

void AngleIntervalSet::canonicalize() {
  auto segs = merge_linear(to_linear(intervals_));
  intervals_.clear();
  if (segs.empty()) return;
  // Re-join a wrap: segment ending at 2π glued to segment starting at 0.
  const bool wraps = segs.size() >= 2 && segs.front().first <= kAngleEps &&
                     segs.back().second >= kTwoPi - kAngleEps;
  if (segs.size() == 1 && segs[0].first <= kAngleEps &&
      segs[0].second >= kTwoPi - kAngleEps) {
    intervals_.push_back(AngleInterval::full());
    return;
  }
  if (wraps) {
    const Seg head = segs.front();
    const Seg tail = segs.back();
    segs.erase(segs.begin());
    segs.pop_back();
    const double width = (kTwoPi - tail.first) + head.second;
    if (width >= kTwoPi) {
      intervals_.push_back(AngleInterval::full());
      return;
    }
    intervals_.emplace_back(tail.first, width);
  }
  for (const auto& s : segs)
    intervals_.emplace_back(s.first, s.second - s.first);
  std::sort(intervals_.begin(), intervals_.end(),
            [](const AngleInterval& a, const AngleInterval& b) {
              return a.start < b.start;
            });
}

bool AngleIntervalSet::contains(double angle, double eps) const {
  for (const auto& iv : intervals_)
    if (iv.contains(angle, eps)) return true;
  return false;
}

bool AngleIntervalSet::is_full() const {
  return intervals_.size() == 1 && intervals_[0].is_full();
}

double AngleIntervalSet::measure() const {
  double total = 0.0;
  for (const auto& iv : intervals_) total += iv.width;
  return std::min(total, kTwoPi);
}

AngleIntervalSet AngleIntervalSet::complement() const {
  AngleIntervalSet out;
  auto segs = complement_linear(merge_linear(to_linear(intervals_)));
  for (const auto& s : segs)
    out.intervals_.emplace_back(s.first, s.second - s.first);
  out.canonicalize();
  return out;
}

AngleIntervalSet AngleIntervalSet::intersect(
    const AngleIntervalSet& other) const {
  AngleIntervalSet out;
  auto segs = intersect_linear(merge_linear(to_linear(intervals_)),
                               merge_linear(to_linear(other.intervals_)));
  for (const auto& s : segs)
    out.intervals_.emplace_back(s.first, s.second - s.first);
  out.canonicalize();
  return out;
}

AngleIntervalSet AngleIntervalSet::unite(const AngleIntervalSet& other) const {
  AngleIntervalSet out;
  out.intervals_ = intervals_;
  out.intervals_.insert(out.intervals_.end(), other.intervals_.begin(),
                        other.intervals_.end());
  out.canonicalize();
  return out;
}

}  // namespace hipo::geom
