#include "src/opt/greedy.hpp"

#include <queue>

#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/util/error.hpp"

namespace hipo::opt {

GreedyMode parse_greedy_mode(const std::string& name) {
  if (name == "lazy" || name == "global") return GreedyMode::kLazyGlobal;
  if (name == "per-type") return GreedyMode::kPerType;
  throw ConfigError("greedy mode '" + name +
                    "' is not one of 'lazy', 'global', 'per-type'");
}

namespace {

/// The partition matroid over `rows` rows, row i in part `type_of(i)`,
/// each part capped by the scenario's budget for that charger type.
template <typename TypeOf>
PartitionMatroid matroid_by_type(const model::Scenario& scenario,
                                 std::size_t rows, const TypeOf& type_of) {
  std::vector<std::size_t> part_of;
  part_of.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) part_of.push_back(type_of(i));
  std::vector<std::size_t> caps;
  caps.reserve(scenario.num_charger_types());
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    caps.push_back(static_cast<std::size_t>(scenario.charger_count(q)));
  }
  return PartitionMatroid(std::move(part_of), std::move(caps));
}

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

/// Lazy-heap entry: a stale gain upper bound of one candidate. Max-heap
/// order is the argmax order — strictly larger gain first, lower index on
/// exact ties.
struct Entry {
  double gain;
  std::size_t index;
  std::size_t round;  // selection round the gain was computed in
  bool operator<(const Entry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return index > other.index;  // deterministic tie-break: lower index wins
  }
};

/// Minoux's lazy greedy over the candidates in `heap`: pick until the
/// tracker holds `goal` elements or the heap runs dry. Submodularity
/// guarantees gains only decrease, so a re-evaluated top that stays on top
/// is exactly the argmax. The round is the number of picks so far, so an
/// entry is fresh iff no pick happened since its gain was computed.
void drain(std::priority_queue<Entry>& heap, std::size_t goal,
           ChargingObjective::State& state, PartitionMatroid::Tracker& tracker,
           GreedyResult& result) {
  std::size_t round = result.selected.size();
  while (tracker.size() < goal && !heap.empty()) {
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
      // only if it would still be the heap's maximum — the strictly
      // largest gain, lower index on exact ties, as a full rescan picks.
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
}

/// The one greedy, in either selection order, over a ready objective —
/// shared by both public entry points, so the warm-matrix path runs the
/// exact same code (and therefore the exact same selection) as the cold
/// span path.
GreedyResult run_greedy(const model::Scenario& scenario,
                        const ChargingObjective& objective, GreedyMode mode,
                        parallel::ThreadPool* workers) {
  const std::size_t n = objective.num_candidates();
  ChargingObjective::State state(objective);
  state.enable_incremental();
  const PartitionMatroid matroid = placement_matroid(scenario, objective);
  PartitionMatroid::Tracker tracker(matroid);
  GreedyResult result;

  // Initial gains are independent of each other (the state is empty), so
  // they parallelize element-wise; the heaps are then built in index
  // order, identical to the sequential construction.
  std::vector<double> initial(n);
  parallel::chunked_for(workers, n, [&](std::size_t i) {
    initial[i] = state.gain(i);
  });
  if (obs::metrics_enabled()) [[unlikely]] {
    // The initial gains are the greedy's one full row scan.
    static obs::Counter& rows = obs::counter("coverage.rows_scanned");
    rows.add(n);
  }

  // kLazyGlobal drains one heap over every row until the matroid is
  // saturated. kPerType (Algorithm 3) drains one heap per charger type, in
  // type order, until that type's budget is filled; its initial gains stay
  // valid upper bounds after earlier types' picks (submodularity).
  const bool per_type = mode == GreedyMode::kPerType;
  std::vector<std::priority_queue<Entry>> heaps(
      per_type ? matroid.num_parts() : 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (initial[i] > kMinGain) {
      heaps[per_type ? matroid.part_of(i) : 0].push({initial[i], i, 0});
    }
  }
  for (std::size_t h = 0; h < heaps.size(); ++h) {
    const std::size_t goal =
        per_type ? tracker.size() + matroid.capacity(h) : matroid.rank();
    drain(heaps[h], goal, state, tracker, result);
  }
  finish(scenario, objective, result, state);
  return result;
}

}  // namespace

PartitionMatroid placement_matroid(
    const model::Scenario& scenario,
    std::span<const pdcs::Candidate> candidates) {
  return matroid_by_type(scenario, candidates.size(), [&](std::size_t i) {
    return candidates[i].strategy.type;
  });
}

PartitionMatroid placement_matroid(const model::Scenario& scenario,
                                   const ChargingObjective& objective) {
  return matroid_by_type(
      scenario, objective.num_candidates(),
      [&](std::size_t i) { return objective.strategy(i).type; });
}

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
