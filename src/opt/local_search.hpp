// Matroid-exchange local search (the practical face of the paper's remark
// that the ratio can be lifted from 1/2 toward 1 − 1/e with heavier
// machinery [39]): starting from a greedy solution, repeatedly apply the
// best strictly-improving single swap — replace one selected strategy by an
// unselected one of the same charger type — until no swap improves f.
//
// Preserves partition-matroid feasibility by construction; the result is
// never worse than the input and is a swap-local optimum.
#pragma once

#include <span>

#include "src/model/scenario.hpp"
#include "src/opt/greedy.hpp"

namespace hipo::opt {

struct LocalSearchOptions {
  /// Upper bound on improvement rounds (each round scans all swaps).
  int max_rounds = 50;
  /// Minimum improvement per swap to accept (guards float noise loops).
  double min_gain = 1e-12;
};

struct LocalSearchResult {
  GreedyResult result;
  int swaps = 0;
  int rounds = 0;
};

/// Improve `start` in place by best-improvement swaps under the scenario's
/// partition matroid. `kind` must match the objective the start was
/// selected under.
LocalSearchResult local_search_improve(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates, const GreedyResult& start,
    ObjectiveKind kind = ObjectiveKind::kUtility,
    const LocalSearchOptions& options = {});

}  // namespace hipo::opt
