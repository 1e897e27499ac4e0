#include "src/opt/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "src/fuzz/generator.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::opt {
namespace {

std::vector<pdcs::Candidate> synthetic_candidates(
    const model::Scenario& s, hipo::Rng& rng, std::size_t count) {
  std::vector<pdcs::Candidate> out;
  for (std::size_t i = 0; i < count; ++i) {
    pdcs::Candidate c;
    c.strategy.type = rng.below(s.num_charger_types());
    c.strategy.pos = {rng.uniform(1, 19), rng.uniform(1, 19)};
    c.strategy.orientation = rng.angle();
    for (std::size_t j = 0; j < s.num_devices(); ++j) {
      if (rng.uniform() < 0.4) {
        c.covered.push_back(j);
        c.powers.push_back(rng.uniform(0.004, 0.05));
      }
    }
    out.push_back(c);
  }
  return out;
}

/// Exhaustive optimum of f over independent sets (small instances only).
double brute_force_optimum(const model::Scenario& s,
                           std::span<const pdcs::Candidate> cands) {
  const ChargingObjective f(s, cands);
  const PartitionMatroid matroid = placement_matroid(s, cands);
  const std::size_t n = cands.size();
  double best = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) set.push_back(i);
    }
    if (!matroid.independent(set)) continue;
    best = std::max(best, f.value(set));
  }
  return best;
}

TEST(Greedy, RespectsBudgets) {
  const auto s = test::simple_scenario();  // budget: 2 chargers of type 0
  hipo::Rng rng(1);
  const auto cands = synthetic_candidates(s, rng, 12);
  for (auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    EXPECT_LE(result.selected.size(), 2u);
    s.validate_placement(result.placement);
  }
}

TEST(Greedy, EmptyCandidatesGiveEmptyPlacement) {
  const auto s = test::simple_scenario();
  const std::vector<pdcs::Candidate> none;
  const auto result = select_strategies(s, none);
  EXPECT_TRUE(result.placement.empty());
  EXPECT_DOUBLE_EQ(result.approx_utility, 0.0);
}

TEST(Greedy, SelectionOrderHasNonIncreasingGains) {
  const auto s = test::small_paper_scenario(22, 1, 1);
  hipo::Rng rng(3);
  const auto cands = synthetic_candidates(s, rng, 40);
  const auto result = select_strategies(s, cands, GreedyMode::kLazyGlobal);
  const ChargingObjective f(s, cands);
  ChargingObjective::State state(f);
  double prev_gain = 1e9;
  for (std::size_t i : result.selected) {
    const double g = state.gain(i);
    EXPECT_LE(g, prev_gain + 1e-12);
    prev_gain = g;
    state.add(i);
  }
}

TEST(Greedy, ApproxUtilityMatchesObjective) {
  const auto s = test::simple_scenario();
  hipo::Rng rng(4);
  const auto cands = synthetic_candidates(s, rng, 10);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType);
  const ChargingObjective f(s, cands);
  EXPECT_NEAR(result.approx_utility, f.value(result.selected), 1e-12);
}

// The ½-approximation guarantee (Theorem 4.2's combinatorial core), checked
// against the exhaustive optimum on small random instances — for every mode
// name parse_greedy_mode accepts. The parameter indexes kModeNames.
constexpr const char* kModeNames[] = {"per-type", "global", "lazy"};
struct ModeName {
  std::uint32_t index;
};

class HalfApproxTest
    : public ::testing::TestWithParam<std::tuple<int, ModeName>> {};

TEST_P(HalfApproxTest, AtLeastHalfOfOptimum) {
  const auto [seed, name] = GetParam();
  const GreedyMode mode = parse_greedy_mode(kModeNames[name.index]);
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 0.5, 6.0});
  cfg.pair_params.push_back({120.0, 48.0});
  cfg.charger_counts = {2, 1};
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10),
                 test::device_at(10, 13), test::device_at(14, 14),
                 test::device_at(6, 9)};
  const model::Scenario s(std::move(cfg));
  hipo::Rng rng(static_cast<std::uint64_t>(seed) * 503 + 17);
  const auto cands = synthetic_candidates(s, rng, 12);

  const double opt = brute_force_optimum(s, cands);
  const auto result = select_strategies(s, cands, mode);
  EXPECT_GE(result.approx_utility, 0.5 * opt - 1e-9)
      << "greedy " << result.approx_utility << " vs opt " << opt;
}

INSTANTIATE_TEST_SUITE_P(
    RandomAllModes, HalfApproxTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(ModeName{0}, ModeName{1},
                                         ModeName{2})));

TEST(Greedy, PerTypeFillsTypesInOrder) {
  const auto s = test::small_paper_scenario(23, 1, 1);
  hipo::Rng rng(5);
  const auto cands = synthetic_candidates(s, rng, 60);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType);
  // Selected types must be non-decreasing (Algorithm 3 iterates types).
  std::size_t prev = 0;
  for (std::size_t i : result.selected) {
    EXPECT_GE(cands[i].strategy.type, prev);
    prev = cands[i].strategy.type;
  }
}

TEST(Greedy, LogUtilityKindSelectsValidPlacement) {
  const auto s = test::simple_scenario();
  hipo::Rng rng(6);
  const auto cands = synthetic_candidates(s, rng, 12);
  const auto result = select_strategies(s, cands, GreedyMode::kPerType,
                                        ObjectiveKind::kLogUtility);
  s.validate_placement(result.placement);
  EXPECT_GT(result.approx_utility, 0.0);
}

TEST(Greedy, ZeroBudgetTypeNeverSelected) {
  // Regression (found by hipo_fuzz, pinned in
  // tests/corpus/fuzz-greedy-seed2762782085899333604.hipo): a charger type
  // with count 0 is a zero-capacity matroid part; the eager global argmax
  // once picked from it and tripped the tracker's capacity assertion
  // because its retire-peers pass only ran after a part *filled up*.
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 2.0, 6.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.charger_counts = {2, 0};
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10)};
  const model::Scenario s(std::move(cfg));
  hipo::Rng rng(11);
  const auto cands = synthetic_candidates(s, rng, 40);
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    for (std::size_t i : result.selected) {
      EXPECT_EQ(cands[i].strategy.type, 0u);
    }
    s.validate_placement(result.placement);
  }
}

TEST(Greedy, LazyMatchesGlobalOnNearTies) {
  // Regression (found by hipo_fuzz, pinned in
  // tests/corpus/fuzz-greedy-seed6414217550488616208.hipo): gains differing
  // by less than the old 1e-15 near-tie band made the eager scan keep the
  // earlier candidate while the lazy heap picked the strictly larger gain.
  // The heap ranks by exact comparison — strictly larger gain wins, exact
  // ties go to the lower index — as a full rescan argmax does.
  auto cfg = test::simple_config();
  cfg.charger_counts = {1};
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  std::vector<pdcs::Candidate> cands(2);
  for (auto& c : cands) {
    c.strategy = {{10.0, 12.0}, 0.0, 0};
    c.covered = {0};
  }
  const double p = 0.01;
  cands[0].powers = {p};
  // One ulp more power: the gain difference (~3e-17 after the p_th
  // normalization) is far below the old 1e-15 band but strictly positive.
  cands[1].powers = {std::nextafter(p, 1.0)};
  const ChargingObjective f(s, cands);
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    const auto result = select_strategies(s, cands, mode);
    EXPECT_EQ(result.selected, (std::vector<std::size_t>{1}));
    EXPECT_EQ(result.approx_utility, ChargingObjective::State(f).gain(1));
  }
}

TEST(Greedy, LazyMatchesGlobalOnExactTies) {
  // Bit-identical candidates: exact tie, both modes must take index 0.
  auto cfg = test::simple_config();
  cfg.charger_counts = {1};
  cfg.devices = {test::device_at(10, 10)};
  const model::Scenario s(std::move(cfg));
  std::vector<pdcs::Candidate> cands(2);
  for (auto& c : cands) {
    c.strategy = {{10.0, 12.0}, 0.0, 0};
    c.covered = {0};
    c.powers = {0.01};
  }
  for (const auto mode : {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
    EXPECT_EQ(select_strategies(s, cands, mode).selected,
              (std::vector<std::size_t>{0}));
  }
}

// --- Literal reference greedy ---------------------------------------------
//
// reference_select is the greedy of Section 4.3 written out with nothing
// but the candidate structs: every marginal gain is recomputed from
// Candidate::covered/powers on every scan (no gain cache, no CSR, no
// heap), and each round is a full-rescan eager argmax. Its row
// gain uses the canonical four-lane fold ((l0+l1)+(l2+l3)) + sequential
// tail and the same per-element expressions as the library, so the
// library's selection must match it bit for bit. This file is compiled
// with -ffp-contract=off (tests/CMakeLists.txt) for the same reason the
// library's objective is.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double reference_gain(const model::Scenario& s, const pdcs::Candidate& c,
                      const std::vector<double>& power, ObjectiveKind kind) {
  double weight_total = 0.0;
  for (std::size_t j = 0; j < s.num_devices(); ++j) {
    weight_total += s.device(j).weight;
  }
  if (s.num_devices() == 0 || weight_total <= 0.0) return 0.0;
  const auto delta = [&](std::size_t k) {
    const std::size_t j = c.covered[k];
    const double acc = power[j];
    const double q = c.powers[k];
    const double th = s.device(j).p_th;
    const double w = s.device(j).weight;
    if (kind == ObjectiveKind::kUtility) {
      const double m1 = std::min(acc + q, th);
      const double m0 = std::min(acc, th);
      return (m1 - m0) * (w / th);
    }
    const double u1 = std::min(acc + q, th) / th;
    const double u0 = std::min(acc, th) / th;
    return w * std::log1p(u1) - w * std::log1p(u0);
  };
  const std::size_t n = c.covered.size();
  const std::size_t n4 = n & ~std::size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (std::size_t k = 0; k < n4; k += 4) {
    l0 += delta(k);
    l1 += delta(k + 1);
    l2 += delta(k + 2);
    l3 += delta(k + 3);
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (std::size_t k = n4; k < n; ++k) sum += delta(k);
  return sum / weight_total;
}

/// kPerType: fill each type's budget in type order. kLazyGlobal: pick the
/// best candidate of any type with budget left. Either way the argmax takes the
/// strictly largest gain above kMinGain, lowest index on exact ties.
GreedyResult reference_select(const model::Scenario& s,
                              const std::vector<pdcs::Candidate>& cands,
                              GreedyMode mode, ObjectiveKind kind) {
  std::vector<double> power(s.num_devices(), 0.0);
  std::vector<bool> taken(cands.size(), false);
  std::vector<int> used(s.num_charger_types(), 0);
  GreedyResult out;

  // Returns false when no candidate passing `allowed` has positive gain.
  const auto take_best = [&](const auto& allowed) {
    std::size_t best = cands.size();
    double best_gain = 0.0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (taken[i] || !allowed(cands[i].strategy.type)) continue;
      const double g = reference_gain(s, cands[i], power, kind);
      if (g > kMinGain && g > best_gain) {
        best = i;
        best_gain = g;
      }
    }
    if (best == cands.size()) return false;
    out.approx_utility += best_gain;
    for (std::size_t k = 0; k < cands[best].covered.size(); ++k) {
      power[cands[best].covered[k]] += cands[best].powers[k];
    }
    taken[best] = true;
    ++used[cands[best].strategy.type];
    out.selected.push_back(best);
    out.placement.push_back(cands[best].strategy);
    return true;
  };

  if (mode == GreedyMode::kPerType) {
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      while (used[q] < s.charger_count(q) &&
             take_best([&](std::size_t type) { return type == q; })) {
      }
    }
  } else {
    while (take_best([&](std::size_t type) {
      return used[type] < s.charger_count(type);
    })) {
    }
  }
  out.exact_utility = s.placement_utility(out.placement);
  return out;
}

/// Every marginal gain the library's incremental State reports equals the
/// reference gain bit for bit, for every candidate, before each pick of
/// `ref`. Stricter than comparing the final sums, where a one-ulp gain
/// difference can round away.
void expect_gains_match_reference(const model::Scenario& s,
                                  const std::vector<pdcs::Candidate>& cands,
                                  ObjectiveKind kind, const GreedyResult& ref,
                                  const std::string& label) {
  const ChargingObjective objective(s, cands, kind);
  ChargingObjective::State state(objective);
  state.enable_incremental();
  std::vector<double> power(s.num_devices(), 0.0);
  std::size_t mismatches = 0;
  for (std::size_t round = 0;; ++round) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (bits(state.gain(i)) !=
          bits(reference_gain(s, cands[i], power, kind))) {
        ++mismatches;
      }
    }
    if (round == ref.selected.size()) break;
    const pdcs::Candidate& pick = cands[ref.selected[round]];
    state.add(ref.selected[round]);
    for (std::size_t k = 0; k < pick.covered.size(); ++k) {
      power[pick.covered[k]] += pick.powers[k];
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

/// select_strategies in every mode, kind and thread count must equal the
/// reference bit for bit.
void expect_matches_reference(const model::Scenario& s,
                              const std::vector<pdcs::Candidate>& cands,
                              const std::string& label) {
  for (const auto kind :
       {ObjectiveKind::kUtility, ObjectiveKind::kLogUtility}) {
    const auto per_type =
        reference_select(s, cands, GreedyMode::kPerType, kind);
    const auto global =
        reference_select(s, cands, GreedyMode::kLazyGlobal, kind);
    expect_gains_match_reference(
        s, cands, kind, global,
        label + " gains, kind " + std::to_string(static_cast<int>(kind)));
    for (const std::size_t workers : {0u, 1u, 4u}) {
      std::unique_ptr<parallel::ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<parallel::ThreadPool>(workers);
      for (const auto mode :
           {GreedyMode::kPerType, GreedyMode::kLazyGlobal}) {
        const GreedyResult& want =
            mode == GreedyMode::kPerType ? per_type : global;
        const auto got = select_strategies(s, cands, mode, kind, pool.get());
        const std::string where =
            label + " mode " + std::to_string(static_cast<int>(mode)) +
            " kind " + std::to_string(static_cast<int>(kind)) + " workers " +
            std::to_string(workers);
        EXPECT_EQ(got.selected, want.selected) << where;
        EXPECT_EQ(bits(got.approx_utility), bits(want.approx_utility))
            << where;
        EXPECT_EQ(bits(got.exact_utility), bits(want.exact_utility)) << where;
      }
    }
  }
}

TEST(LiteralReference, MatchesOnAdversarialScenarios) {
  for (const std::uint64_t seed : {2ull, 9ull, 41ull, 77ull, 130ull}) {
    fuzz::GeneratorOptions gen;
    gen.adversarial_bias = 1.0;
    const model::Scenario s(fuzz::random_config(seed, gen));
    const auto extraction = pdcs::extract_all(s);
    expect_matches_reference(s, extraction.candidates,
                             "seed " + std::to_string(seed));
  }
}

// The denser paper-style city, where the dirty set is a strict subset of
// the pool every round (the interesting regime for the cached gains).
TEST(LiteralReference, MatchesOnPaperCity) {
  const auto s = test::small_paper_scenario(17, 8, 4);
  const auto extraction = pdcs::extract_all(s);
  ASSERT_GT(extraction.candidates.size(), 200u);
  expect_matches_reference(s, extraction.candidates, "paper city");
}

// A pool of 2,560 rows, so the pooled runs really spread the initial gains
// the heaps are seeded with across workers.
TEST(LiteralReference, MatchesAcrossArgmaxChunks) {
  const auto s = test::small_paper_scenario(21, 2, 4);
  hipo::Rng rng(12);
  const auto cands = synthetic_candidates(s, rng, 2560);
  expect_matches_reference(s, cands, "chunked");
}

// Exact ties everywhere (bit-identical candidate pairs, so every argmax
// must resolve to the lower index) plus a zero-budget charger type whose
// candidates must never be chosen.
TEST(LiteralReference, MatchesOnExactTiesAndZeroBudgetType) {
  auto cfg = test::simple_config();
  cfg.charger_types.push_back({geom::kPi, 2.0, 6.0});
  cfg.pair_params.push_back({100.0, 40.0});
  cfg.charger_counts = {3, 0};
  cfg.devices = {test::device_at(10, 10), test::device_at(12, 10),
                 test::device_at(10, 13), test::device_at(14, 14)};
  const model::Scenario s(std::move(cfg));
  hipo::Rng rng(31);
  const auto base = synthetic_candidates(s, rng, 24);
  std::vector<pdcs::Candidate> cands;
  for (const auto& c : base) {
    cands.push_back(c);
    cands.push_back(c);
  }
  expect_matches_reference(s, cands, "ties");
}

}  // namespace
}  // namespace hipo::opt
