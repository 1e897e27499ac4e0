// HIPO solver facade: area discretization → PDCS extraction → submodular
// greedy selection (the full Section 4 pipeline), in one call.
#pragma once

#include "src/model/scenario.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"

namespace hipo::core {

struct SolveOptions {
  pdcs::ExtractOptions extract;
  /// Lazy global matroid greedy by default: identical ½−ε guarantee to
  /// Algorithm 3 (both are the greedy of [38] the paper cites), never worse
  /// in utility, and faster via Minoux's lazy evaluation. Set kPerType for
  /// the literal Algorithm 3 type-by-type order (compared in
  /// bench_ablation_greedy).
  opt::GreedyMode greedy = opt::GreedyMode::kLazyGlobal;
  /// Post-greedy matroid-exchange local search (never worse; tightens the
  /// solution toward the 1 − 1/e quality the paper mentions via [39]).
  bool local_search = false;
  /// Optional worker pool for the whole pipeline: distributed extraction
  /// (Algorithm 5), per-type dominance filtering, the greedy argmax, and
  /// the exact-utility evaluation. Output is bit-identical for any pool
  /// size (deterministic chunked reductions), including no pool at all.
  parallel::ThreadPool* pool = nullptr;
};

struct SolveResult {
  model::Placement placement;
  /// Exact Eq. (1)–(3) objective of the returned placement.
  double utility = 0.0;
  /// Approximated objective f(X) the greedy optimized (within 1+ε₁ of
  /// exact by Lemma 4.3).
  double approx_utility = 0.0;
  pdcs::ExtractionResult extraction;
  opt::GreedyResult greedy;
};

/// Run the full HIPO pipeline on a scenario.
SolveResult solve(const model::Scenario& scenario,
                  const SolveOptions& options = {});

}  // namespace hipo::core
