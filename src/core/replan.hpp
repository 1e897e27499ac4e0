// Incremental re-solve session for dynamic scenarios (Section 8.1 coupled
// to the delta engine): hold a solved deployment warm, apply device/obstacle
// deltas through opt::DeltaSolver, and translate each new placement into a
// minimum-switching-cost redeployment plan from the previous one.
//
// The placement after every delta is bit-identical to a cold core::solve of
// the mutated scenario under the same options (the DeltaSolver contract);
// the session adds the operational layer on top — which charger physically
// moves where, what gets recalled, what deploys fresh.
#pragma once

#include "src/core/solver.hpp"
#include "src/ext/redeploy.hpp"
#include "src/opt/delta.hpp"

namespace hipo::core {

struct ReplanOptions {
  opt::DeltaOptions delta;
  ext::SwitchCostModel switch_cost;
};

/// Translate SolveOptions into the delta equivalent so a session can be
/// compared 1:1 against cold core::solve runs. Throws ConfigError when
/// local search is on: its exchange moves have no warm formulation.
ReplanOptions replan_options(const SolveOptions& solve);

struct ReplanResult {
  /// The new placement (bit-identical to a cold solve of the new scenario).
  model::Placement placement;
  /// Exact Eq. (1)–(3) utility of the new placement.
  double utility = 0.0;
  /// Approximated objective f(X) the greedy optimized.
  double approx_utility = 0.0;
  /// What the delta touched (tasks re-extracted, rows erased/inserted, …).
  opt::DeltaStats stats;
  /// Min-total-switching-cost transfer plan from the previous placement.
  ext::BestEffortPlan redeploy;
};

/// One warm scenario + deployment, mutated in place by deltas. Construction
/// runs the cold pipeline; each apply() re-solves incrementally and plans
/// the redeployment. Not thread-safe (one mutation at a time).
class DeltaSession {
 public:
  explicit DeltaSession(model::Scenario::Config config,
                        ReplanOptions options = {});

  /// Apply one delta: incremental re-solve + redeployment plan from the
  /// pre-delta placement. Throws ConfigError on invalid ops, leaving the
  /// session unchanged.
  ReplanResult apply(const opt::DeltaOp& op);

  const opt::DeltaSolver& solver() const { return solver_; }
  const model::Scenario& scenario() const { return solver_.scenario(); }
  const model::Placement& placement() const {
    return solver_.result().placement;
  }

 private:
  opt::DeltaSolver solver_;
  ReplanOptions options_;
};

}  // namespace hipo::core
