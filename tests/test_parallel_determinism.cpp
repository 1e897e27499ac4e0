// The determinism guarantee of the parallel solve path: solver output is
// byte-identical for a 1-worker pool, a many-worker pool, and no pool at
// all, on seeded scenarios. Backed by the fixed-chunk reductions in
// `hipo::parallel` (chunk boundaries and fold order never depend on the
// worker count).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/core/solver.hpp"
#include "src/opt/greedy.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Strategy-by-strategy bitwise comparison (positions, orientations, types).
void expect_placement_bits_equal(const model::Placement& a,
                                 const model::Placement& b,
                                 const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].pos.x), bits(b[i].pos.x)) << label << " slot " << i;
    EXPECT_EQ(bits(a[i].pos.y), bits(b[i].pos.y)) << label << " slot " << i;
    EXPECT_EQ(bits(a[i].orientation), bits(b[i].orientation))
        << label << " slot " << i;
    EXPECT_EQ(a[i].type, b[i].type) << label << " slot " << i;
  }
}

TEST(ParallelDeterminism, SolveByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const auto scenario = test::small_paper_scenario(seed, 2, 2);

    core::SolveOptions sequential;  // no pool at all
    const auto reference = core::solve(scenario, sequential);

    for (const std::size_t workers : {1u, 2u, 8u}) {
      parallel::ThreadPool pool(workers);
      core::SolveOptions options;
      options.pool = &pool;
      const auto result = core::solve(scenario, options);

      EXPECT_EQ(result.extraction.candidates.size(),
                reference.extraction.candidates.size())
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(result.greedy.selected, reference.greedy.selected)
          << "seed " << seed << " workers " << workers;
      expect_placement_bits_equal(result.placement, reference.placement,
                                  "placement");
      EXPECT_EQ(bits(result.utility), bits(reference.utility))
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(bits(result.approx_utility), bits(reference.approx_utility))
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(ParallelDeterminism, EveryGreedyModeThreadCountInvariant) {
  const auto scenario = test::small_paper_scenario(5, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);

  for (const auto mode : {opt::GreedyMode::kPerType,
                          opt::GreedyMode::kLazyGlobal}) {
    const auto reference =
        opt::select_strategies(scenario, extraction.candidates, mode);
    for (const std::size_t workers : {1u, 3u, 8u}) {
      parallel::ThreadPool pool(workers);
      const auto result =
          opt::select_strategies(scenario, extraction.candidates, mode,
                                 opt::ObjectiveKind::kUtility, &pool);
      EXPECT_EQ(result.selected, reference.selected)
          << "mode " << static_cast<int>(mode) << " workers " << workers;
      EXPECT_EQ(bits(result.exact_utility), bits(reference.exact_utility))
          << "mode " << static_cast<int>(mode) << " workers " << workers;
      EXPECT_EQ(bits(result.approx_utility), bits(reference.approx_utility))
          << "mode " << static_cast<int>(mode) << " workers " << workers;
    }
  }
}

TEST(ParallelDeterminism, ExtractionIdenticalAcrossThreadCounts) {
  const auto scenario = test::small_paper_scenario(3, 2, 1);
  const auto reference = pdcs::extract_all(scenario);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(workers);
    const auto result = pdcs::extract_all(scenario, {}, &pool);
    ASSERT_EQ(result.candidates.size(), reference.candidates.size());
    EXPECT_EQ(result.per_type_counts, reference.per_type_counts);
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
      const auto& a = result.candidates[i];
      const auto& b = reference.candidates[i];
      EXPECT_EQ(bits(a.strategy.pos.x), bits(b.strategy.pos.x)) << i;
      EXPECT_EQ(bits(a.strategy.pos.y), bits(b.strategy.pos.y)) << i;
      EXPECT_EQ(bits(a.strategy.orientation), bits(b.strategy.orientation))
          << i;
      EXPECT_EQ(a.strategy.type, b.strategy.type) << i;
      EXPECT_EQ(a.covered, b.covered) << i;
    }
  }
}

}  // namespace
}  // namespace hipo
