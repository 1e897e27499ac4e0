#include "src/ext/fairness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/geometry/angles.hpp"
#include "src/util/error.hpp"

namespace hipo::ext {

using model::Placement;
using model::Scenario;
using model::Strategy;

double min_utility(const Scenario& scenario, const Placement& placement) {
  if (scenario.num_devices() == 0) return 0.0;
  double lo = 1.0;
  for (const double u : scenario.per_device_utility(placement)) {
    lo = std::min(lo, u);
  }
  return lo;
}

namespace {

/// Incremental min-utility evaluator over candidate selections
/// (approximated powers — consistent with the optimization phase of HIPO).
class MinUtilState {
 public:
  MinUtilState(const Scenario& scenario,
               std::span<const pdcs::Candidate> candidates)
      : scenario_(&scenario),
        candidates_(candidates),
        power_(scenario.num_devices(), 0.0) {}

  void add(std::size_t i) { apply(i, +1.0); }
  void remove(std::size_t i) { apply(i, -1.0); }

  double min_utility() const {
    double lo = 1.0;
    for (std::size_t j = 0; j < power_.size(); ++j) {
      lo = std::min(lo, scenario_->utility(j, power_[j]));
    }
    return power_.empty() ? 0.0 : lo;
  }

  /// Lexicographic max-min score: the minimum utility dominates, with the
  /// mean as tie-break so the search keeps making progress when some device
  /// is unreachable and the minimum is pinned at zero.
  double score() const {
    double lo = 1.0;
    double sum = 0.0;
    for (std::size_t j = 0; j < power_.size(); ++j) {
      const double u = scenario_->utility(j, power_[j]);
      lo = std::min(lo, u);
      sum += u;
    }
    if (power_.empty()) return 0.0;
    return lo + 1e-3 * sum / static_cast<double>(power_.size());
  }

 private:
  void apply(std::size_t i, double sign) {
    const auto& cand = candidates_[i];
    for (std::size_t k = 0; k < cand.covered.size(); ++k) {
      power_[cand.covered[k]] += sign * cand.powers[k];
    }
  }

  const Scenario* scenario_;
  std::span<const pdcs::Candidate> candidates_;
  std::vector<double> power_;
};

}  // namespace

MaxMinResult maxmin_simulated_annealing(
    const Scenario& scenario, std::span<const pdcs::Candidate> candidates,
    Rng& rng, const AnnealOptions& options) {
  HIPO_REQUIRE(options.iterations >= 0, "iterations must be >= 0");
  HIPO_REQUIRE(options.cooling > 0.0 && options.cooling <= 1.0,
               "cooling factor must be in (0, 1]");

  // Candidate pools per charger type.
  std::vector<std::vector<std::size_t>> pools(scenario.num_charger_types());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    pools[candidates[i].strategy.type].push_back(i);
  }

  // Initial state: the first budget-many candidates of each type (or fewer
  // if the pool is smaller).
  MinUtilState state(scenario, candidates);
  std::vector<std::size_t> selected;
  std::vector<bool> taken(candidates.size(), false);
  for (std::size_t q = 0; q < pools.size(); ++q) {
    const auto budget = static_cast<std::size_t>(scenario.charger_count(q));
    for (std::size_t k = 0; k < std::min(budget, pools[q].size()); ++k) {
      selected.push_back(pools[q][k]);
      taken[pools[q][k]] = true;
      state.add(pools[q][k]);
    }
  }

  double current = state.score();
  std::vector<std::size_t> best_selected = selected;
  double best = current;
  double temperature = options.initial_temperature;

  for (int it = 0; it < options.iterations && !selected.empty(); ++it) {
    // Propose: swap a random selected candidate for a random unselected one
    // of the same type.
    const std::size_t pos = rng.below(selected.size());
    const std::size_t out_idx = selected[pos];
    const std::size_t q = candidates[out_idx].strategy.type;
    const auto& pool = pools[q];
    if (pool.size() <= 1) continue;
    const std::size_t in_idx = pool[rng.below(pool.size())];
    if (taken[in_idx]) continue;

    state.remove(out_idx);
    state.add(in_idx);
    const double proposed = state.score();
    const double delta = proposed - current;
    const bool accept =
        delta >= 0.0 ||
        rng.uniform() < std::exp(delta / std::max(temperature, 1e-12));
    if (accept) {
      taken[out_idx] = false;
      taken[in_idx] = true;
      selected[pos] = in_idx;
      current = proposed;
      if (current > best) {
        best = current;
        best_selected = selected;
      }
    } else {
      state.remove(in_idx);
      state.add(out_idx);
    }
    temperature *= options.cooling;
  }

  MaxMinResult result;
  for (std::size_t i : best_selected) {
    result.placement.push_back(candidates[i].strategy);
  }
  result.min_utility = min_utility(scenario, result.placement);
  result.mean_utility = scenario.placement_utility(result.placement);
  return result;
}

MaxMinResult maxmin_particle_swarm(const Scenario& scenario, Rng& rng,
                                   const PsoOptions& options) {
  HIPO_REQUIRE(options.particles >= 1, "need at least one particle");
  const auto& region = scenario.region();

  // Flatten a placement into (x, y, φ) triples; charger types fixed by the
  // budget layout.
  std::vector<std::size_t> types;
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    for (int c = 0; c < scenario.charger_count(q); ++c) types.push_back(q);
  }
  const std::size_t dims = types.size() * 3;

  auto decode = [&](const std::vector<double>& x) {
    Placement p;
    p.reserve(types.size());
    for (std::size_t i = 0; i < types.size(); ++i) {
      p.push_back(Strategy{{x[3 * i], x[3 * i + 1]},
                           geom::norm_angle(x[3 * i + 2]),
                           types[i]});
    }
    return p;
  };
  auto evaluate = [&](const std::vector<double>& x) {
    Placement p = decode(x);
    // Soft penalty: chargers at infeasible positions contribute nothing.
    Placement effective;
    for (const auto& s : p) {
      if (scenario.position_feasible(s.pos)) effective.push_back(s);
    }
    // Lexicographic max-min score (min dominates, mean breaks ties so the
    // swarm still climbs when the minimum is pinned at zero).
    return min_utility(scenario, effective) +
           1e-3 * scenario.placement_utility(effective);
  };

  std::vector<std::vector<double>> xs(options.particles),
      vs(options.particles), pbest(options.particles);
  std::vector<double> pbest_val(options.particles,
                                -std::numeric_limits<double>::infinity());
  std::vector<double> gbest;
  double gbest_val = -std::numeric_limits<double>::infinity();

  // Encode the warm-start placement (if provided and budget-complete) into
  // the (x, y, φ) layout: one queue per charger type, drained in slot order.
  std::vector<double> warm_encoded;
  if (options.warm_start != nullptr &&
      options.warm_start->size() <= types.size()) {
    std::vector<std::vector<const Strategy*>> queues(
        scenario.num_charger_types());
    bool valid = true;
    for (const auto& s : *options.warm_start) {
      if (s.type >= queues.size()) {
        valid = false;
        break;
      }
      queues[s.type].push_back(&s);
    }
    if (valid) {
      warm_encoded.resize(dims);
      std::vector<std::size_t> next(queues.size(), 0);
      for (std::size_t i = 0; i < types.size(); ++i) {
        const std::size_t q = types[i];
        if (next[q] < queues[q].size()) {
          const Strategy* s = queues[q][next[q]++];
          warm_encoded[3 * i] = s->pos.x;
          warm_encoded[3 * i + 1] = s->pos.y;
          warm_encoded[3 * i + 2] = s->orientation;
        } else {
          // Warm placement deployed fewer chargers of this type than the
          // budget (greedy stopped early): fill the slot randomly.
          warm_encoded[3 * i] = rng.uniform(region.lo.x, region.hi.x);
          warm_encoded[3 * i + 1] = rng.uniform(region.lo.y, region.hi.y);
          warm_encoded[3 * i + 2] = rng.angle();
        }
      }
    }
  }

  const double span_x = region.hi.x - region.lo.x;
  const double span_y = region.hi.y - region.lo.y;
  for (int p = 0; p < options.particles; ++p) {
    xs[p].resize(dims);
    vs[p].resize(dims);
    for (std::size_t i = 0; i < types.size(); ++i) {
      xs[p][3 * i] = rng.uniform(region.lo.x, region.hi.x);
      xs[p][3 * i + 1] = rng.uniform(region.lo.y, region.hi.y);
      xs[p][3 * i + 2] = rng.angle();
      vs[p][3 * i] = rng.uniform(-span_x, span_x) * 0.1;
      vs[p][3 * i + 1] = rng.uniform(-span_y, span_y) * 0.1;
      vs[p][3 * i + 2] = rng.uniform(-geom::kPi, geom::kPi) * 0.1;
    }
    // Warm-seed the first quarter of the swarm: particle 0 exactly, the
    // rest jittered around the warm placement.
    if (!warm_encoded.empty() && p <= options.particles / 4) {
      for (std::size_t d = 0; d < dims; ++d) {
        const double jitter =
            p == 0 ? 0.0 : rng.uniform(-0.05, 0.05) * span_x;
        xs[p][d] = warm_encoded[d] + jitter;
      }
      for (std::size_t i = 0; i < types.size(); ++i) {
        xs[p][3 * i] = std::clamp(xs[p][3 * i], region.lo.x, region.hi.x);
        xs[p][3 * i + 1] =
            std::clamp(xs[p][3 * i + 1], region.lo.y, region.hi.y);
      }
    }
    pbest[p] = xs[p];
    pbest_val[p] = evaluate(xs[p]);
    if (pbest_val[p] > gbest_val) {
      gbest_val = pbest_val[p];
      gbest = xs[p];
    }
  }

  for (int it = 0; it < options.iterations; ++it) {
    for (int p = 0; p < options.particles; ++p) {
      for (std::size_t d = 0; d < dims; ++d) {
        const double r1 = rng.uniform();
        const double r2 = rng.uniform();
        vs[p][d] = options.inertia * vs[p][d] +
                   options.cognitive * r1 * (pbest[p][d] - xs[p][d]) +
                   options.social * r2 * (gbest[d] - xs[p][d]);
        xs[p][d] += vs[p][d];
      }
      // Clamp positions into the region; orientations wrap naturally.
      for (std::size_t i = 0; i < types.size(); ++i) {
        xs[p][3 * i] = std::clamp(xs[p][3 * i], region.lo.x, region.hi.x);
        xs[p][3 * i + 1] =
            std::clamp(xs[p][3 * i + 1], region.lo.y, region.hi.y);
      }
      const double val = evaluate(xs[p]);
      if (val > pbest_val[p]) {
        pbest_val[p] = val;
        pbest[p] = xs[p];
        if (val > gbest_val) {
          gbest_val = val;
          gbest = xs[p];
        }
      }
    }
  }

  MaxMinResult result;
  for (const auto& s : decode(gbest)) {
    if (scenario.position_feasible(s.pos)) result.placement.push_back(s);
  }
  result.min_utility = min_utility(scenario, result.placement);
  result.mean_utility = scenario.placement_utility(result.placement);
  return result;
}

opt::GreedyResult proportional_fairness_select(
    const Scenario& scenario, std::span<const pdcs::Candidate> candidates,
    opt::GreedyMode mode) {
  return opt::select_strategies(scenario, candidates, mode,
                                opt::ObjectiveKind::kLogUtility);
}

}  // namespace hipo::ext
