// Compiled with -ffp-contract=off (src/opt/CMakeLists.txt): the row gains
// below spell out every multiply and add, and no build may fuse them into
// FMAs — their bits are the contract every greedy mode and test relies on.
#include "src/opt/objective.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

namespace {

// Row gains: the marginal gain of one CSR row before normalization. Both
// use one canonical fold — four lane accumulators over groups of four
// entries, combined as ((l0+l1)+(l2+l3)), then a sequential tail — and one
// per-element expression each. Every evaluation of a row (cache refresh,
// recompute, lazy re-evaluation, State::add) goes through these, which is
// what makes cached and fresh gains, and therefore every greedy mode's
// selection, bit-identical.

/// Utility per-element delta: add, min, min, sub, mul — no division.
double utility_delta(double acc, double q, double th, double wot) {
  const double m1 = std::min(acc + q, th);
  const double m0 = std::min(acc, th);
  return (m1 - m0) * wot;
}

/// Σ_k (min(acc[j]+q, th[j]) − min(acc[j], th[j])) · wot[j], with
/// j = ids[k], q = powers[k] and wot = weight/p_th per device.
double row_gain_utility(const std::uint32_t* ids, const double* powers,
                        std::size_t n, const double* acc, const double* th,
                        const double* wot) {
  const std::size_t n4 = n & ~std::size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (std::size_t k = 0; k < n4; k += 4) {
    const std::size_t j0 = ids[k], j1 = ids[k + 1];
    const std::size_t j2 = ids[k + 2], j3 = ids[k + 3];
    l0 += utility_delta(acc[j0], powers[k], th[j0], wot[j0]);
    l1 += utility_delta(acc[j1], powers[k + 1], th[j1], wot[j1]);
    l2 += utility_delta(acc[j2], powers[k + 2], th[j2], wot[j2]);
    l3 += utility_delta(acc[j3], powers[k + 3], th[j3], wot[j3]);
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (std::size_t k = n4; k < n; ++k) {
    const std::size_t j = ids[k];
    sum += utility_delta(acc[j], powers[k], th[j], wot[j]);
  }
  return sum;
}

/// Log-utility per-element delta: w·log1p(u1) − w·log1p(u0) with
/// u = min(x, th)/th.
double log_delta(double acc, double q, double th, double w) {
  const double u1 = std::min(acc + q, th) / th;
  const double u0 = std::min(acc, th) / th;
  return w * std::log1p(u1) - w * std::log1p(u0);
}

double row_gain_log(const std::uint32_t* ids, const double* powers,
                    std::size_t n, const double* acc, const double* th,
                    const double* w) {
  const std::size_t n4 = n & ~std::size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (std::size_t k = 0; k < n4; k += 4) {
    const std::size_t j0 = ids[k], j1 = ids[k + 1];
    const std::size_t j2 = ids[k + 2], j3 = ids[k + 3];
    l0 += log_delta(acc[j0], powers[k], th[j0], w[j0]);
    l1 += log_delta(acc[j1], powers[k + 1], th[j1], w[j1]);
    l2 += log_delta(acc[j2], powers[k + 2], th[j2], w[j2]);
    l3 += log_delta(acc[j3], powers[k + 3], th[j3], w[j3]);
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (std::size_t k = n4; k < n; ++k) {
    const std::size_t j = ids[k];
    sum += log_delta(acc[j], powers[k], th[j], w[j]);
  }
  return sum;
}

}  // namespace

ChargingObjective::ChargingObjective(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates, ObjectiveKind kind)
    : scenario_(&scenario),
      matrix_(std::make_unique<CoverageMatrix>(candidates,
                                               scenario.num_devices())),
      mat_(matrix_.get()),
      kind_(kind) {
  init_device_caches(scenario);
}

ChargingObjective::ChargingObjective(const model::Scenario& scenario,
                                     const CoverageMatrix& prebuilt,
                                     ObjectiveKind kind)
    : scenario_(&scenario), mat_(&prebuilt), kind_(kind) {
  HIPO_REQUIRE(prebuilt.num_devices() == scenario.num_devices(),
               "prebuilt coverage matrix does not match the scenario");
  init_device_caches(scenario);
}

void ChargingObjective::init_device_caches(const model::Scenario& scenario) {
  p_th_.reserve(scenario.num_devices());
  weight_.reserve(scenario.num_devices());
  weight_over_pth_.reserve(scenario.num_devices());
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    p_th_.push_back(scenario.device(j).p_th);
    weight_.push_back(scenario.device(j).weight);
    weight_over_pth_.push_back(scenario.device(j).weight /
                               scenario.device(j).p_th);
    weight_total_ += scenario.device(j).weight;
  }
}

const model::Strategy& ChargingObjective::strategy(std::size_t i) const {
  HIPO_ASSERT(i < mat_->num_rows());
  return mat_->strategy(i);
}

double ChargingObjective::value(std::span<const std::size_t> selected) const {
  State state(*this);
  for (std::size_t i : selected) state.add(i);
  return state.value();
}

ChargingObjective::State::State(const ChargingObjective& objective)
    : objective_(&objective), power_(objective.p_th_.size(), 0.0) {}

void ChargingObjective::State::enable_incremental() {
  if (!dirty_.empty()) return;
  const std::size_t n = objective_->num_candidates();
  if (n == 0) return;
  cached_gain_.assign(n, 0.0);
  dirty_.assign(n, 1);  // nothing cached yet: every row starts stale
  eligible_.assign(n, 1);
}

double ChargingObjective::State::recompute_gain(std::size_t i) const {
  const ChargingObjective& o = *objective_;
  // Early-outs ahead of any row lookup: a device-free scenario has no
  // utility to gain, and a zero total weight would divide by zero below.
  if (o.p_th_.empty() || o.weight_total_ <= 0.0) return 0.0;
  HIPO_ASSERT(i < o.mat_->num_rows());
  const auto covered = o.mat_->covered(i);
  const auto powers = o.mat_->powers(i);
  const double delta =
      o.kind_ == ObjectiveKind::kUtility
          ? row_gain_utility(covered.data(), powers.data(), covered.size(),
                             power_.data(), o.p_th_.data(),
                             o.weight_over_pth_.data())
          : row_gain_log(covered.data(), powers.data(), covered.size(),
                         power_.data(), o.p_th_.data(), o.weight_.data());
  return delta / o.weight_total_;
}

double ChargingObjective::State::gain(std::size_t i) const {
  if (!dirty_.empty()) {
    if (dirty_[i]) {
      // Same expressions, same fold order as every other evaluation of
      // this row — the refreshed cache entry is bit-identical to what a
      // cache-free State would compute.
      const double g = recompute_gain(i);
      cached_gain_[i] = g;
      dirty_[i] = 0;
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& recomputes =
            obs::counter("coverage.gain_recomputes");
        recomputes.bump();
      }
      return g;
    }
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& avoided = obs::counter("coverage.reevals_avoided");
      avoided.bump();
    }
    return cached_gain_[i];
  }
  return recompute_gain(i);
}

BestGain ChargingObjective::State::best_gain(std::size_t begin,
                                             std::size_t end) const {
  HIPO_ASSERT_MSG(incremental(), "best_gain needs enable_incremental()");
  BestGain best;
  std::size_t clean_hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (eligible_[i] == 0) continue;
    double g;
    if (dirty_[i] == 0) {
      // With a warmed-up cache this branch is ~all of the scan: one byte
      // load and one double load per row, no call.
      ++clean_hits;
      g = cached_gain_[i];
    } else {
      g = gain(i);
    }
    // kMinGain > 0 = the initial incumbent, so this one strict compare is
    // both the positivity threshold and the lowest-index tie-break.
    if (g > best.gain && g > kMinGain) {
      best.gain = g;
      best.index = i;
    }
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    // Bulk-bump once per argmax chunk.
    static obs::Counter& rows = obs::counter("coverage.rows_scanned");
    static obs::Counter& avoided = obs::counter("coverage.reevals_avoided");
    rows.add(end - begin);
    avoided.add(clean_hits);
  }
  return best;
}

void ChargingObjective::State::add(std::size_t i) {
  value_ += gain(i);
  const CoverageMatrix& m = *objective_->mat_;
  HIPO_ASSERT(i < m.num_rows());
  const auto covered = m.covered(i);
  const auto powers = m.powers(i);
  for (std::size_t k = 0; k < covered.size(); ++k) {
    power_[covered[k]] += powers[k];
  }
  if (!dirty_.empty()) {
    // Dirty propagation: only rows sharing a covered device with i can see
    // a different marginal gain — exactly the union of the inverted
    // index's lists for i's devices. Everything else keeps its cached
    // gain, bit-identical to a fresh recomputation.
    for (std::uint32_t j : covered) {
      for (std::uint32_t r : m.rows_covering(j)) dirty_[r] = 1;
    }
  }
}

}  // namespace hipo::opt
