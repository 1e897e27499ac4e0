#include "src/opt/local_search.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace hipo::opt {

namespace {

/// Objective value of an explicit selection (fresh evaluation — each add
/// runs the same row gains as the greedy, so swap evaluations here are
/// bit-comparable with the greedy's gains).
double value_of(const ChargingObjective& objective,
                const std::vector<std::size_t>& selected) {
  return objective.value(selected);
}

}  // namespace

LocalSearchResult local_search_improve(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates, const GreedyResult& start,
    ObjectiveKind kind, const LocalSearchOptions& options) {
  HIPO_REQUIRE(options.max_rounds >= 0, "max_rounds must be >= 0");
  const ChargingObjective objective(scenario, candidates, kind);

  LocalSearchResult out;
  out.result = start;
  auto& selected = out.result.selected;
  std::vector<bool> taken(candidates.size(), false);
  for (std::size_t i : selected) {
    HIPO_REQUIRE(i < candidates.size(), "selected index out of range");
    taken[i] = true;
  }

  // Candidate pool per charger type (swap partners).
  std::vector<std::vector<std::size_t>> pools(scenario.num_charger_types());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    pools[objective.strategy(i).type].push_back(i);
  }

  double current = value_of(objective, selected);
  for (out.rounds = 0; out.rounds < options.max_rounds; ++out.rounds) {
    double best_value = current;
    std::size_t best_slot = 0;
    std::size_t best_in = 0;
    bool found = false;

    for (std::size_t slot = 0; slot < selected.size(); ++slot) {
      const std::size_t out_idx = selected[slot];
      const std::size_t q = objective.strategy(out_idx).type;
      for (std::size_t in_idx : pools[q]) {
        if (taken[in_idx]) continue;
        selected[slot] = in_idx;  // tentative swap
        const double v = value_of(objective, selected);
        selected[slot] = out_idx;
        if (v > best_value + options.min_gain) {
          best_value = v;
          best_slot = slot;
          best_in = in_idx;
          found = true;
        }
      }
    }
    if (!found) break;
    taken[selected[best_slot]] = false;
    taken[best_in] = true;
    selected[best_slot] = best_in;
    current = best_value;
    ++out.swaps;
  }

  out.result.approx_utility = current;
  out.result.placement.clear();
  for (std::size_t i : selected) {
    out.result.placement.push_back(objective.strategy(i));
  }
  out.result.exact_utility = scenario.placement_utility(out.result.placement);
  return out;
}

}  // namespace hipo::opt
