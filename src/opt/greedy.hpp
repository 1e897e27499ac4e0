// Greedy strategy selection under the partition matroid (Section 4.3).
//
// Three interchangeable modes:
//   * PerType    — Algorithm 3 verbatim: iterate charger types in order and
//                  fill each type's budget greedily, gains evaluated on the
//                  global state.
//   * Global     — textbook matroid greedy: at every step pick the feasible
//                  candidate with the best global marginal gain. Both
//                  achieve the 1/2 bound for monotone submodular f under a
//                  matroid constraint [Fisher–Nemhauser–Wolsey; ref 38].
//   * LazyGlobal — Global accelerated with Minoux's lazy evaluation; exact
//                  same output by submodularity (stale upper bounds only
//                  ever postpone re-evaluation).
#pragma once

#include <span>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/matroid.hpp"
#include "src/opt/objective.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::opt {

enum class GreedyMode { kPerType, kGlobal, kLazyGlobal };

struct GreedyResult {
  /// Indices into the candidate span, in selection order.
  std::vector<std::size_t> selected;
  /// The selected strategies (one per deployed charger).
  model::Placement placement;
  /// Objective value f(X) under approximated powers.
  double approx_utility = 0.0;
  /// Exact Eq. (1)-(3) utility of the placement.
  double exact_utility = 0.0;
};

/// Build the partition matroid for `candidates` from the scenario's per-type
/// charger budget.
PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   std::span<const pdcs::Candidate> candidates);

/// Same matroid, read off an objective's row metadata (the CSR strategy
/// arena) instead of the candidate structs. Identical output; this is what
/// the greedy drivers use so the selection loop never touches the
/// vector-of-vectors representation.
PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective);

/// Chunk size of the eager modes' parallel argmax (State::best_gain per
/// chunk, folded in chunk order). Fixed — worker-count independent — so the
/// reduction is deterministic; the winner is chunking-invariant anyway
/// (exact compares, lowest index wins across any chunk boundary).
inline constexpr std::size_t kArgmaxGrain = 1024;

/// Select strategies greedily. Stops early when no remaining candidate has
/// positive gain and every budget is either filled or its part exhausted.
/// `kind` selects the per-device transform (kLogUtility gives the
/// proportional-fairness objective of Section 8.3). The pool is packed into
/// a CoverageMatrix and selection runs the dirty-gain incremental greedy on
/// it. When `workers` is given, the per-round argmax, the lazy heap build,
/// and the exact-utility evaluation run on the pool; the chunked
/// deterministic reduction makes the result bit-identical for any worker
/// count (including none).
GreedyResult select_strategies(const model::Scenario& scenario,
                               std::span<const pdcs::Candidate> candidates,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

/// Warm-matrix overload (the delta path): run the same greedy drivers over
/// a caller-owned, already-built CoverageMatrix — no packing, no candidate
/// span. Selection indices are matrix row indices. Because the drivers are
/// shared with the span overload, a warm matrix that is bit-identical to
/// the one the span overload would build yields a bit-identical result.
GreedyResult select_strategies(const model::Scenario& scenario,
                               const CoverageMatrix& matrix,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

}  // namespace hipo::opt
