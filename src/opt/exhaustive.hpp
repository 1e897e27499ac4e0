// Exact reference solver: branch-and-bound over the PDCS candidate set
// under the partition matroid.
//
// Used to measure the greedy's empirical approximation gap (Theorem 4.2
// guarantees 1/2; bench_exact_gap shows it is far better in practice) and
// as a test oracle. The bound is the classic submodular one: from a partial
// selection, adding the top remaining per-part marginal gains (computed on
// the current state) upper-bounds every completion, by submodularity.
#pragma once

#include <span>

#include "src/model/scenario.hpp"
#include "src/opt/greedy.hpp"

namespace hipo::opt {

struct ExactOptions {
  /// Hard cap on explored nodes (throws ConfigError when exceeded, so
  /// callers never silently get a non-optimal "exact" answer).
  std::size_t max_nodes = 50'000'000;
};

struct ExactResult {
  GreedyResult result;  // the optimal selection, in GreedyResult shape
  std::size_t nodes_explored = 0;
};

/// Exact maximizer of f(X) over independent sets. Exponential in the worst
/// case — intended for candidate sets up to a few dozen.
ExactResult exact_select(const model::Scenario& scenario,
                         std::span<const pdcs::Candidate> candidates,
                         const ExactOptions& options = {});

}  // namespace hipo::opt
