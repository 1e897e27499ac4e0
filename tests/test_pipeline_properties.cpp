// End-to-end properties of the HIPO pipeline that cut across modules:
// the Theorem 4.1/4.2 quality story checked against brute force and random
// search on real (non-synthetic) extractions.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/solver.hpp"
#include "src/opt/local_search.hpp"
#include "src/pdcs/extract.hpp"
#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

/// Brute-force optimum over the extracted candidates (tiny instances).
double exhaustive_optimum(const model::Scenario& s,
                          std::span<const pdcs::Candidate> candidates) {
  const opt::ChargingObjective f(s, candidates);
  const opt::PartitionMatroid matroid = opt::placement_matroid(s, candidates);
  const std::size_t n = candidates.size();
  double best = 0.0;
  HIPO_ASSERT(n <= 22);
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcountll(mask)) > matroid.rank())
      continue;
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) set.push_back(i);
    }
    if (!matroid.independent(set)) continue;
    best = std::max(best, f.value(set));
  }
  return best;
}

// Theorem 4.2 on real extractions: greedy f(X) >= (1/2)·OPT over the
// candidate set, verified exhaustively on tiny instances.
class EndToEndHalfApprox : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndHalfApprox, GreedyWithinHalfOfCandidateOptimum) {
  // Tiny hand-rolled scenario so the candidate set stays enumerable.
  auto cfg = test::simple_config();
  cfg.charger_counts = {2};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 883 + 11);
  cfg.devices.clear();
  for (int i = 0; i < 3; ++i) {
    cfg.devices.push_back(test::device_at(rng.uniform(6, 14),
                                          rng.uniform(6, 14)));
  }
  if (GetParam() % 2 == 0) {
    cfg.obstacles = {geom::make_rect({9.5, 9.5}, {10.5, 10.5})};
    // Re-sample devices that ended up inside the obstacle.
    for (auto& d : cfg.devices) {
      while (cfg.obstacles[0].contains(d.pos)) {
        d.pos = {rng.uniform(6, 14), rng.uniform(6, 14)};
      }
    }
  }
  const model::Scenario s(std::move(cfg));
  auto extraction = pdcs::extract_all(s);
  if (extraction.candidates.size() > 22) {
    // Keep the instance enumerable: truncation can only hurt greedy (it
    // sees fewer options than the optimum we enumerate over the same set).
    extraction.candidates.resize(22);
  }
  const double opt_value = exhaustive_optimum(s, extraction.candidates);
  for (auto mode : {opt::GreedyMode::kPerType,
                    opt::GreedyMode::kLazyGlobal}) {
    const auto greedy =
        opt::select_strategies(s, extraction.candidates, mode);
    EXPECT_GE(greedy.approx_utility, 0.5 * opt_value - 1e-9)
        << "mode " << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EndToEndHalfApprox, ::testing::Range(0, 10));

// HIPO must beat random search with the same budget: the PDCS candidate set
// plus greedy is at least as good as the best of many random placements.
class BeatsRandomSearch : public ::testing::TestWithParam<int> {};

TEST_P(BeatsRandomSearch, HipoAtLeastBestOfRandom) {
  const auto s = test::small_paper_scenario(
      static_cast<std::uint64_t>(GetParam()) + 700, 1, 1);
  const auto hipo_result = core::solve(s);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  double best_random = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    model::Placement placement;
    for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
      for (int c = 0; c < s.charger_count(q); ++c) {
        for (;;) {
          const geom::Vec2 p{rng.uniform(0, 40), rng.uniform(0, 40)};
          if (s.position_feasible(p)) {
            placement.push_back({p, rng.angle(), q});
            break;
          }
        }
      }
    }
    best_random = std::max(best_random, s.placement_utility(placement));
  }
  EXPECT_GE(hipo_result.utility, best_random - 0.02)
      << "random search found " << best_random << " vs HIPO "
      << hipo_result.utility;
}

INSTANTIATE_TEST_SUITE_P(Random, BeatsRandomSearch, ::testing::Range(0, 6));

// Approximation-chain consistency on full solves: the exact utility of the
// returned placement is within [approx, (1+ε₁)·approx].
class ApproximationChain : public ::testing::TestWithParam<double> {};

TEST_P(ApproximationChain, Lemma43HoldsOnSolutions) {
  model::GenOptions gen;
  gen.device_multiplier = 1;
  gen.eps = GetParam();
  Rng rng(81);
  const auto s = model::make_paper_scenario(gen, rng);
  const auto result = core::solve(s);
  EXPECT_LE(result.approx_utility, result.utility + 1e-9);
  EXPECT_GE(result.utility * (1.0 + s.eps1()),
            result.approx_utility - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, ApproximationChain,
                         ::testing::Values(0.05, 0.15, 0.3, 0.45));

// Scaling the charger budget by including all previous candidates keeps the
// pipeline monotone end to end (devices fixed).
TEST(PipelineMonotonicity, UtilityGrowsWithBudgetAcrossScales) {
  double prev = 0.0;
  for (int mult : {1, 2, 4}) {
    model::GenOptions gen;
    gen.device_multiplier = 2;
    gen.charger_multiplier = mult;
    Rng rng(4242);
    const auto s = model::make_paper_scenario(gen, rng);
    const double u = core::solve(s).utility;
    EXPECT_GE(u, prev - 1e-9) << "budget x" << mult;
    prev = u;
  }
}

// The local search never moves a solution out of feasibility and composes
// with every greedy mode.
TEST(PipelineLocalSearch, ComposesWithAllModes) {
  const auto s = test::small_paper_scenario(801, 1, 1);
  const auto extraction = pdcs::extract_all(s);
  for (auto mode : {opt::GreedyMode::kPerType,
                    opt::GreedyMode::kLazyGlobal}) {
    const auto start = opt::select_strategies(s, extraction.candidates, mode);
    const auto improved =
        opt::local_search_improve(s, extraction.candidates, start);
    s.validate_placement(improved.result.placement);
    EXPECT_GE(improved.result.approx_utility, start.approx_utility - 1e-12);
  }
}

}  // namespace
}  // namespace hipo
