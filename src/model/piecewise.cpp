#include "src/model/piecewise.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace hipo::model {

RingLadder::RingLadder(double a, double b, double d_min, double d_max,
                       double eps1)
    : a_(a), b_(b), d_min_(d_min), d_max_(d_max), eps1_(eps1) {
  HIPO_REQUIRE(a > 0.0 && b > 0.0, "power constants a, b must be positive");
  HIPO_REQUIRE(d_min >= 0.0 && d_max > d_min,
               "need 0 <= d_min < d_max for the charging range");
  HIPO_REQUIRE(eps1 > 0.0, "ε₁ must be positive");

  const double log1e = std::log1p(eps1);
  // d_max's rung index bounds the ladder's size. Refuse a ladder no memory
  // holds (a subnormal ε₁ asks for ~1e324 rings) before any rung index is
  // converted to an integer.
  constexpr double kMaxRings = 1 << 20;
  HIPO_REQUIRE(2.0 * std::log1p(d_max / b) / log1e <= kMaxRings,
               "ε₁ is too small for the charging range: the ring ladder "
               "would need more than 2^20 rings");
  // l(k) = b((1+ε₁)^{k/2} − 1). k₀ is the smallest k with l(k) >= d_min;
  // K−1 is the largest interior rung below d_max; l(K) = d_max exactly.
  const auto l = [&](long long k) {
    return b * (std::exp(0.5 * static_cast<double>(k) * log1e) - 1.0);
  };
  // Smallest k with l(k) >= d. The log-derived estimate can land one off in
  // either direction (its rounding is magnified by 1/log1e), so correct it
  // by comparing the *actual* rung values — the same l(k) the ladder
  // stores. One consistent comparison decides both endpoints: no epsilon
  // nudges, so a boundary exactly on a rung (or within a few ulp of one)
  // can never gain or lose a ring and break the Lemma 4.1 ratio bound.
  const auto first_rung_at_or_above = [&](double d) {
    auto k = static_cast<long long>(
        std::ceil(2.0 * std::log1p(d / b) / log1e));
    if (k < 0) k = 0;
    while (l(k) < d) ++k;
    while (k > 0 && l(k - 1) >= d) --k;
    return k;
  };
  const long long k0 = first_rung_at_or_above(d_min);
  const long long big_k = first_rung_at_or_above(d_max);
  HIPO_ASSERT(big_k >= k0);

  // Interior rungs: strictly between the boundaries. l(k0) == d_min is the
  // first ring's *inner* edge, not an outer radius; l(big_k) >= d_max is
  // superseded by the exact d_max rung pushed below.
  for (long long k = k0; k < big_k; ++k) {
    const double radius = l(k);
    if (radius > d_min_ && radius < d_max_) outer_.push_back(radius);
  }
  outer_.push_back(d_max_);
  powers_.reserve(outer_.size());
  for (double r : outer_) powers_.push_back(exact_power(r));
  boundaries_.reserve(outer_.size() + 1);
  boundaries_.push_back(d_min_);
  boundaries_.insert(boundaries_.end(), outer_.begin(), outer_.end());
  // Rings must be strictly increasing for ring_index's binary search.
  HIPO_ASSERT(std::is_sorted(outer_.begin(), outer_.end()));
}

double RingLadder::exact_power(double d) const {
  return a_ / ((d + b_) * (d + b_));
}

std::optional<std::size_t> RingLadder::ring_index(double d) const {
  if (d < d_min_ || d > d_max_) return std::nullopt;
  const auto it = std::lower_bound(outer_.begin(), outer_.end(), d);
  if (it == outer_.end()) return outer_.size() - 1;  // d == d_max rounding
  return static_cast<std::size_t>(it - outer_.begin());
}

double RingLadder::ring_power(std::size_t r) const {
  HIPO_ASSERT(r < powers_.size());
  return powers_[r];
}

double RingLadder::approx_power(double d) const {
  const auto r = ring_index(d);
  return r ? powers_[*r] : 0.0;
}

}  // namespace hipo::model
