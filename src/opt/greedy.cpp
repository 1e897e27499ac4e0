#include "src/opt/greedy.hpp"

#include <algorithm>
#include <queue>

#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

GreedyMode parse_greedy_mode(const std::string& name) {
  if (name == "lazy") return GreedyMode::kLazyGlobal;
  if (name == "global") return GreedyMode::kGlobal;
  if (name == "per-type") return GreedyMode::kPerType;
  throw ConfigError("greedy mode '" + name +
                    "' is not one of 'lazy', 'global', 'per-type'");
}

PartitionMatroid placement_matroid(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates) {
  std::vector<std::size_t> part_of;
  part_of.reserve(candidates.size());
  for (const auto& c : candidates) part_of.push_back(c.strategy.type);
  std::vector<std::size_t> caps;
  caps.reserve(scenario.num_charger_types());
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    caps.push_back(static_cast<std::size_t>(scenario.charger_count(q)));
  }
  return PartitionMatroid(std::move(part_of), std::move(caps));
}

PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective) {
  std::vector<std::size_t> part_of;
  part_of.reserve(objective.num_candidates());
  for (std::size_t i = 0; i < objective.num_candidates(); ++i) {
    part_of.push_back(objective.strategy(i).type);
  }
  std::vector<std::size_t> caps;
  caps.reserve(scenario.num_charger_types());
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    caps.push_back(static_cast<std::size_t>(scenario.charger_count(q)));
  }
  return PartitionMatroid(std::move(part_of), std::move(caps));
}

namespace {

/// Marginal-gain buckets: the utility objective is normalized to [0, 1], so
/// accepted gains live on a log-ish scale below 1.
constexpr double kGainBounds[] = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                  0.05, 0.1,  0.25, 0.5,  1.0};

/// Record one accepted greedy pick (count + gain distribution).
void note_selection(double gain) {
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& selections = obs::counter("greedy.selections");
    static obs::Histogram& gains = obs::histogram("greedy.gain", kGainBounds);
    selections.bump();
    gains.observe(gain);
  }
}

/// One pass of the eager modes' argmax over every eligible row: per-chunk
/// sequential scans (State::best_gain) reduced in chunk order with the same
/// exact strict comparison (ties → lower index), so the winner is identical
/// for any worker count — and to the lazy variant's heap order.
BestGain best_gain(const ChargingObjective::State& state,
                   std::size_t num_candidates, parallel::ThreadPool* workers) {
  return parallel::chunked_reduce(
      workers, num_candidates, BestGain{},
      [&](std::size_t begin, std::size_t end) {
        return state.best_gain(begin, end);
      },
      [](BestGain a, BestGain b) { return better_gain(a, b); }, kArgmaxGrain);
}

void finish(const model::Scenario& scenario,
            const ChargingObjective& objective, GreedyResult& result,
            const ChargingObjective::State& state) {
  result.approx_utility = state.value();
  result.placement.clear();
  result.placement.reserve(result.selected.size());
  for (std::size_t i : result.selected) {
    result.placement.push_back(objective.strategy(i));
  }
  // Exact Eq. (1)-(3) utility of the chosen placement: one charger-major
  // pass over the scenario's device grid.
  obs::ScopedPhase phase("exact_eval");
  result.exact_utility = scenario.placement_utility(result.placement);
}

GreedyResult greedy_per_type(const model::Scenario& scenario,
                             const ChargingObjective& objective,
                             parallel::ThreadPool* workers) {
  const std::size_t n = objective.num_candidates();
  ChargingObjective::State state(objective);
  state.enable_incremental();
  GreedyResult result;

  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    // One eligibility reset per type phase. Rows taken in earlier phases
    // belong to earlier types, so they come out ineligible here too.
    for (std::size_t i = 0; i < n; ++i) {
      state.set_eligible(i, objective.strategy(i).type == q);
    }
    const auto budget = static_cast<std::size_t>(scenario.charger_count(q));
    for (std::size_t pick = 0; pick < budget; ++pick) {
      const BestGain best = best_gain(state, n, workers);
      if (!best.found()) break;  // nothing left with positive gain
      state.set_eligible(best.index, false);
      state.add(best.index);
      result.selected.push_back(best.index);
      note_selection(best.gain);
    }
  }
  finish(scenario, objective, result, state);
  return result;
}

GreedyResult greedy_global(const model::Scenario& scenario,
                           const ChargingObjective& objective,
                           parallel::ThreadPool* workers) {
  const std::size_t n = objective.num_candidates();
  ChargingObjective::State state(objective);
  state.enable_incremental();
  const PartitionMatroid matroid = placement_matroid(scenario, objective);
  PartitionMatroid::Tracker tracker(matroid);
  GreedyResult result;
  // The eligibility lane also excludes matroid-infeasible candidates: when
  // a part fills up, all its remaining candidates are retired. Candidates
  // of zero-budget parts are infeasible from the start — without this
  // pre-marking the argmax could pick one and trip the tracker's capacity
  // assertion before any retirement pass ran.
  for (std::size_t i = 0; i < n; ++i) {
    if (!tracker.can_add(i)) state.set_eligible(i, false);
  }

  while (!tracker.saturated()) {
    const BestGain best = best_gain(state, n, workers);
    if (!best.found()) break;
    state.set_eligible(best.index, false);
    tracker.add(best.index);
    state.add(best.index);
    result.selected.push_back(best.index);
    note_selection(best.gain);
    if (!tracker.can_add(best.index)) {  // part now full: retire its peers
      const std::size_t part = matroid.part_of(best.index);
      for (std::size_t i = 0; i < n; ++i) {
        if (matroid.part_of(i) == part) state.set_eligible(i, false);
      }
    }
  }
  finish(scenario, objective, result, state);
  return result;
}

GreedyResult greedy_lazy(const model::Scenario& scenario,
                         const ChargingObjective& objective,
                         parallel::ThreadPool* workers) {
  const std::size_t n = objective.num_candidates();
  ChargingObjective::State state(objective);
  state.enable_incremental();
  const PartitionMatroid matroid = placement_matroid(scenario, objective);
  PartitionMatroid::Tracker tracker(matroid);
  GreedyResult result;

  // Max-heap of (stale gain upper bound, candidate). Submodularity
  // guarantees gains only decrease, so a re-evaluated top that stays on top
  // is exactly the argmax.
  struct Entry {
    double gain;
    std::size_t index;
    std::size_t round;  // selection round the gain was computed in
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return index > other.index;  // deterministic tie-break: lower index wins
    }
  };
  // Initial gains are independent of each other (the state is empty), so
  // they parallelize element-wise; the heap is then built in index order,
  // identical to the sequential construction.
  std::vector<double> initial(n);
  parallel::chunked_for(workers, n, [&](std::size_t i) {
    initial[i] = state.gain(i);
  });
  if (obs::metrics_enabled()) [[unlikely]] {
    // The heap build is the lazy variant's one full row scan; count it so
    // coverage.rows_scanned reflects work done under every greedy mode.
    static obs::Counter& rows = obs::counter("coverage.rows_scanned");
    rows.add(n);
  }
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (initial[i] > kMinGain) heap.push({initial[i], i, 0});
  }

  std::size_t round = 0;
  while (!tracker.saturated() && !heap.empty()) {
    const bool obs_on = obs::metrics_enabled();
    Entry top = heap.top();
    heap.pop();
    if (obs_on) [[unlikely]] {
      static obs::Counter& pops = obs::counter("greedy.lazy_pops");
      pops.bump();
    }
    if (!tracker.can_add(top.index)) continue;  // part already full
    if (top.round != round) {
      if (obs_on) [[unlikely]] {
        static obs::Counter& reevals = obs::counter("greedy.lazy_reevals");
        reevals.bump();
      }
      const double g = state.gain(top.index);
      if (g <= kMinGain) continue;  // gains only shrink: drop for good
      top.gain = g;
      top.round = round;
      // Demotion uses the heap's own exact ordering (Entry::operator<),
      // not a fuzzy band: with the refreshed gain, `top` stays selected
      // only if it would still be the heap's maximum. This is what keeps
      // the lazy output bit-identical to the eager global scan — both
      // pick the strictly largest gain, lower index on exact ties.
      if (!heap.empty() && top < heap.top()) {
        heap.push(top);
        continue;
      }
    }
    tracker.add(top.index);
    state.add(top.index);
    result.selected.push_back(top.index);
    note_selection(top.gain);
    ++round;
  }
  finish(scenario, objective, result, state);
  return result;
}

/// Dispatch on mode over a ready objective — shared by both public entry
/// points, so the warm-matrix path runs the exact same driver code (and
/// therefore the exact same selection) as the cold span path.
GreedyResult run_greedy(const model::Scenario& scenario,
                        const ChargingObjective& objective, GreedyMode mode,
                        parallel::ThreadPool* workers) {
  switch (mode) {
    case GreedyMode::kPerType:
      return greedy_per_type(scenario, objective, workers);
    case GreedyMode::kGlobal:
      return greedy_global(scenario, objective, workers);
    case GreedyMode::kLazyGlobal:
      return greedy_lazy(scenario, objective, workers);
  }
  HIPO_ASSERT_MSG(false, "unknown greedy mode");
  return {};
}

}  // namespace

GreedyResult select_strategies(const model::Scenario& scenario,
                               std::span<const pdcs::Candidate> candidates,
                               GreedyMode mode, ObjectiveKind kind,
                               parallel::ThreadPool* workers) {
  const ChargingObjective objective(scenario, candidates, kind);
  return run_greedy(scenario, objective, mode, workers);
}

GreedyResult select_strategies(const model::Scenario& scenario,
                               const CoverageMatrix& matrix, GreedyMode mode,
                               ObjectiveKind kind,
                               parallel::ThreadPool* workers) {
  const ChargingObjective objective(scenario, matrix, kind);
  return run_greedy(scenario, objective, mode, workers);
}

}  // namespace hipo::opt
