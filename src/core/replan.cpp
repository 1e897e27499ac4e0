#include "src/core/replan.hpp"

#include <utility>

#include "src/util/error.hpp"

namespace hipo::core {

ReplanOptions replan_options(const SolveOptions& solve) {
  HIPO_REQUIRE(!solve.local_search,
               "replan: local search has no incremental path");
  ReplanOptions out;
  out.delta.mode = solve.greedy;
  out.delta.extract = solve.extract;
  out.delta.workers = solve.pool;
  return out;
}

DeltaSession::DeltaSession(model::Scenario::Config config,
                           ReplanOptions options)
    : solver_(std::move(config), options.delta), options_(options) {}

ReplanResult DeltaSession::apply(const opt::DeltaOp& op) {
  const model::Placement previous = solver_.result().placement;
  ReplanResult out;
  out.stats = solver_.apply(op);
  const opt::GreedyResult& solved = solver_.result();
  out.placement = solved.placement;
  out.utility = solved.exact_utility;
  out.approx_utility = solved.approx_utility;
  out.redeploy = ext::redeploy_best_effort(
      previous, out.placement, scenario().num_charger_types(),
      options_.switch_cost);
  return out;
}

}  // namespace hipo::core
