// The CSR coverage matrix (opt::CoverageMatrix) and the dirty-gain
// incremental State on top of it: structural CSR invariants and the
// dirty-flag cache invariant the incremental argmax rests on.
// Bit-for-bit selection equivalence against a literal greedy lives in
// tests/test_greedy.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/objective.hpp"
#include "src/pdcs/extract.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CoverageMatrix, MirrorsCandidatesExactly) {
  const auto scenario = test::small_paper_scenario(3, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  ASSERT_FALSE(cands.empty());

  const opt::CoverageMatrix matrix(cands, scenario.num_devices());
  ASSERT_EQ(matrix.num_rows(), cands.size());
  ASSERT_EQ(matrix.num_devices(), scenario.num_devices());

  std::size_t nnz = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const auto covered = matrix.covered(i);
    const auto powers = matrix.powers(i);
    ASSERT_EQ(covered.size(), cands[i].covered.size()) << "row " << i;
    ASSERT_EQ(powers.size(), cands[i].powers.size()) << "row " << i;
    for (std::size_t k = 0; k < covered.size(); ++k) {
      EXPECT_EQ(covered[k], cands[i].covered[k]) << "row " << i;
      EXPECT_EQ(bits(powers[k]), bits(cands[i].powers[k])) << "row " << i;
    }
    EXPECT_EQ(bits(matrix.strategy(i).pos.x), bits(cands[i].strategy.pos.x));
    EXPECT_EQ(matrix.strategy(i).type, cands[i].strategy.type);
    nnz += covered.size();
  }
  EXPECT_EQ(matrix.nnz(), nnz);
}

TEST(CoverageMatrix, InvertedIndexIsExactTranspose) {
  const auto scenario = test::small_paper_scenario(11, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  const opt::CoverageMatrix matrix(cands, scenario.num_devices());

  // row i covers j  ⟺  i ∈ rows_covering(j), with each list ascending.
  std::set<std::pair<std::size_t, std::size_t>> forward, inverted;
  for (std::size_t i = 0; i < matrix.num_rows(); ++i) {
    for (std::uint32_t j : matrix.covered(i)) forward.insert({i, j});
  }
  for (std::size_t j = 0; j < matrix.num_devices(); ++j) {
    const auto rows = matrix.rows_covering(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(rows[k - 1], rows[k]) << "device " << j;
      }
      inverted.insert({rows[k], j});
    }
  }
  EXPECT_EQ(forward, inverted);
}

TEST(CoverageMatrix, EmptyPoolAndEmptyMatrix) {
  const opt::CoverageMatrix empty;
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.num_devices(), 0u);
  EXPECT_EQ(empty.nnz(), 0u);

  const auto scenario = test::small_paper_scenario(1, 1, 1);
  const opt::CoverageMatrix no_rows(std::span<const pdcs::Candidate>{},
                                    scenario.num_devices());
  EXPECT_EQ(no_rows.num_rows(), 0u);
  EXPECT_EQ(no_rows.num_devices(), scenario.num_devices());
  for (std::size_t j = 0; j < no_rows.num_devices(); ++j) {
    EXPECT_TRUE(no_rows.rows_covering(j).empty());
  }
}

// The cache invariant the incremental greedy rests on: after any sequence
// of adds, every *clean* candidate's cached gain equals a fresh
// recomputation bit-for-bit, and every candidate sharing a device with the
// added row is marked dirty.
TEST(DirtyGain, CleanCacheEntriesAreBitExact) {
  const auto scenario = test::small_paper_scenario(29, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  ASSERT_GE(cands.size(), 4u);

  const opt::ChargingObjective objective(scenario, cands,
                                         opt::ObjectiveKind::kUtility);
  const opt::CoverageMatrix& matrix = objective.matrix();
  opt::ChargingObjective::State state(objective);
  state.enable_incremental();
  ASSERT_TRUE(state.incremental());

  // Prime every cache entry.
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(bits(state.gain(i)), bits(state.recompute_gain(i))) << i;
    EXPECT_FALSE(state.is_dirty(i)) << i;
  }

  // Greedy-ish adds: every add must dirty exactly the inverted-index
  // reachability set (checked as a superset: re-marking is idempotent),
  // and every clean row must still match a fresh recomputation exactly.
  std::vector<std::size_t> picks = {0, cands.size() / 2, cands.size() - 1};
  for (std::size_t pick : picks) {
    std::set<std::size_t> reachable;
    for (std::uint32_t j : matrix.covered(pick)) {
      for (std::uint32_t r : matrix.rows_covering(j)) reachable.insert(r);
    }
    state.add(pick);
    for (std::size_t r : reachable) {
      EXPECT_TRUE(state.is_dirty(r)) << "pick " << pick << " row " << r;
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (state.is_dirty(i)) continue;
      EXPECT_EQ(bits(state.gain(i)), bits(state.recompute_gain(i)))
          << "pick " << pick << " clean row " << i;
    }
    // Re-reading a dirty row refreshes it to the exact fresh value.
    for (std::size_t r : reachable) {
      const double fresh = state.recompute_gain(r);
      EXPECT_EQ(bits(state.gain(r)), bits(fresh)) << "row " << r;
      EXPECT_FALSE(state.is_dirty(r)) << "row " << r;
    }
  }
}

// Device-free scenario: the hoisted early-out returns a clean zero for
// every candidate instead of dividing by the zero total weight.
TEST(DirtyGain, DeviceFreeScenarioHasZeroGains) {
  model::Scenario::Config cfg;
  cfg.region = {{0.0, 0.0}, {10.0, 10.0}};
  cfg.eps1 = 0.3;
  cfg.charger_types.push_back({1.0, 0.5, 4.0});
  cfg.charger_counts.push_back(2);
  cfg.device_types.push_back({3.0});
  cfg.pair_params.push_back({100.0, 40.0});
  const model::Scenario scenario(std::move(cfg));

  pdcs::Candidate cand;
  cand.strategy = {{1.0, 1.0}, 0.0, 0};
  const std::vector<pdcs::Candidate> cands{cand};
  const opt::ChargingObjective objective(scenario, cands,
                                         opt::ObjectiveKind::kUtility);
  opt::ChargingObjective::State state(objective);
  EXPECT_EQ(state.gain(0), 0.0);
  state.add(0);
  EXPECT_EQ(state.value(), 0.0);
}

}  // namespace
}  // namespace hipo
