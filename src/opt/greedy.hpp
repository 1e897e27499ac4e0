// Greedy strategy selection under the partition matroid (Section 4.3).
//
// One greedy in two selection orders:
//   * PerType    — Algorithm 3 verbatim: iterate charger types in order and
//                  fill each type's budget greedily, gains evaluated on the
//                  global state.
//   * LazyGlobal — textbook matroid greedy: at every step pick the feasible
//                  candidate with the best global marginal gain. Both
//                  achieve the 1/2 bound for monotone submodular f under a
//                  matroid constraint [Fisher–Nemhauser–Wolsey; ref 38].
// Both run Minoux's lazy evaluation: each pick is the exact argmax (the
// strictly largest gain, lower index on exact ties) because by
// submodularity stale gains only ever overestimate.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/matroid.hpp"
#include "src/opt/objective.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/candidate.hpp"

namespace hipo::opt {

enum class GreedyMode { kPerType, kLazyGlobal };

/// The mode named "lazy" or "global" (both kLazyGlobal) or "per-type", as
/// the CLI tools and the serve wire spell it. ConfigError on any other name.
GreedyMode parse_greedy_mode(const std::string& name);

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
/// the greedy uses so the selection loop never touches the
/// vector-of-vectors representation.
PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective);

/// Select strategies greedily. Stops early when no remaining candidate has
/// positive gain and every budget is either filled or its part exhausted.
/// `kind` selects the per-device transform (kLogUtility gives the
/// proportional-fairness objective of Section 8.3). The pool is packed into
/// a CoverageMatrix and selection runs the dirty-gain incremental greedy on
/// it. When `workers` is given, the initial gains the lazy heaps are seeded
/// with are computed on the pool, one row per task; the result is
/// bit-identical for any worker count (including none).
GreedyResult select_strategies(const model::Scenario& scenario,
                               std::span<const pdcs::Candidate> candidates,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

/// Warm-matrix overload (the delta path): run the same greedy over a
/// caller-owned, already-built CoverageMatrix — no packing, no candidate
/// span. Selection indices are matrix row indices. Because the greedy is
/// shared with the span overload, a warm matrix that is bit-identical to
/// the one the span overload would build yields a bit-identical result.
GreedyResult select_strategies(const model::Scenario& scenario,
                               const CoverageMatrix& matrix,
                               GreedyMode mode = GreedyMode::kPerType,
                               ObjectiveKind kind = ObjectiveKind::kUtility,
                               parallel::ThreadPool* workers = nullptr);

}  // namespace hipo::opt
