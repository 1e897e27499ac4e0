// Piecewise-constant approximation of the charging power (Section 4.1.1).
//
// For charger type i and device type j with constants (a, b) and charging
// range [d_min, d_max], Lemma 4.1 chooses ring radii
//     l(k) = b·((1+ε₁)^{k/2} − 1),  k = k₀ … K−1,   l(K) = d_max,
// with k₀ = ⌈2·ln(d_min/b + 1)/ln(1+ε₁)⌉ and
//      K  = ⌈ln(a/(b²·P(d_max)))/ln(1+ε₁)⌉,
// and approximates P̃(d) = P(l(k)) on each ring (l(k−1), l(k)], giving
//      1 ≤ P(d)/P̃(d) ≤ 1+ε₁  on  [d_min, d_max].
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace hipo::model {

class RingLadder {
 public:
  /// Build the ladder for P(d) = a/(d+b)² on [d_min, d_max] with error ε₁.
  RingLadder(double a, double b, double d_min, double d_max, double eps1);

  double a() const { return a_; }
  double b() const { return b_; }
  double d_min() const { return d_min_; }
  double d_max() const { return d_max_; }
  double eps1() const { return eps1_; }

  /// Exact empirical power at distance d (no range gating).
  double exact_power(double d) const;

  /// Ring outer radii, ascending; rings are (inner(r), outer(r)] with
  /// inner(0) == d_min. All radii lie in (d_min, d_max].
  const std::vector<double>& outer_radii() const { return outer_; }
  std::size_t num_rings() const { return outer_.size(); }
  /// Every ring boundary, ascending: d_min followed by outer_radii().
  const std::vector<double>& boundaries() const { return boundaries_; }

  /// Ring index containing distance d, or nullopt outside [d_min, d_max].
  std::optional<std::size_t> ring_index(double d) const;

  /// Constant approximated power of ring r: P(outer_radii()[r]).
  double ring_power(std::size_t r) const;

  /// P̃(d): approximated power at distance d; 0 outside [d_min, d_max].
  double approx_power(double d) const;

 private:
  double a_ = 0.0;
  double b_ = 0.0;
  double d_min_ = 0.0;
  double d_max_ = 0.0;
  double eps1_ = 0.0;
  std::vector<double> outer_;
  std::vector<double> powers_;
  std::vector<double> boundaries_;
};

}  // namespace hipo::model
