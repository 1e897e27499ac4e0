// The CSR coverage matrix (opt::CoverageMatrix) and the dirty-gain
// incremental State on top of it: structural CSR invariants, the dirty-flag
// cache invariant the incremental argmax rests on, and in-place patching.
// Bit-for-bit selection equivalence against a literal greedy lives in
// tests/test_greedy.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "src/model/scenario.hpp"
#include "src/opt/coverage_matrix.hpp"
#include "src/opt/greedy.hpp"
#include "src/opt/objective.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/pdcs/extract.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_results_identical(const opt::GreedyResult& a,
                              const opt::GreedyResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.selected, b.selected) << label;
  EXPECT_EQ(bits(a.approx_utility), bits(b.approx_utility)) << label;
  EXPECT_EQ(bits(a.exact_utility), bits(b.exact_utility)) << label;
  ASSERT_EQ(a.placement.size(), b.placement.size()) << label;
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_EQ(bits(a.placement[i].pos.x), bits(b.placement[i].pos.x))
        << label << " slot " << i;
    EXPECT_EQ(bits(a.placement[i].pos.y), bits(b.placement[i].pos.y))
        << label << " slot " << i;
    EXPECT_EQ(bits(a.placement[i].orientation),
              bits(b.placement[i].orientation))
        << label << " slot " << i;
    EXPECT_EQ(a.placement[i].type, b.placement[i].type)
        << label << " slot " << i;
  }
}

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
      if (k > 0) EXPECT_LT(rows[k - 1], rows[k]) << "device " << j;
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

// --- in-place patching (the DeltaSolver substrate) -------------------------

/// Hand-built candidate with distinguishable payloads: powers are derived
/// from `tag` so any row mixup shows up as a bitwise mismatch.
pdcs::Candidate patch_cand(std::vector<std::size_t> covered, double tag,
                           std::size_t type = 0) {
  pdcs::Candidate c;
  c.strategy = {{tag, tag * 2.0 + 0.25}, tag * 0.125, type};
  c.covered = std::move(covered);
  c.powers.reserve(c.covered.size());
  for (std::size_t k = 0; k < c.covered.size(); ++k) {
    c.powers.push_back(tag + 0.5 * static_cast<double>(k + 1));
  }
  return c;
}

void expect_transpose_consistent(const opt::CoverageMatrix& m) {
  std::set<std::pair<std::size_t, std::size_t>> forward, inverted;
  for (std::size_t i = 0; i < m.num_rows(); ++i) {
    for (std::uint32_t j : m.covered(i)) forward.insert({i, j});
  }
  for (std::size_t j = 0; j < m.num_devices(); ++j) {
    const auto rows = m.rows_covering(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (k > 0) EXPECT_LT(rows[k - 1], rows[k]) << "device " << j;
      inverted.insert({rows[k], j});
    }
  }
  EXPECT_EQ(forward, inverted);
}

TEST(CoverageMatrixPatch, InsertOnlyMatchesFreshBuild) {
  const std::vector<pdcs::Candidate> base = {patch_cand({0, 2}, 1.0),
                                             patch_cand({1}, 2.0)};
  const pdcs::Candidate x = patch_cand({0, 1, 3}, 3.0);
  const pdcs::Candidate y = patch_cand({3}, 4.0);

  opt::CoverageMatrix m(base, 4);
  // New row order: base[0], x, base[1], y.
  const std::vector<opt::CoverageMatrix::RowInsert> inserts = {{1, &x},
                                                               {3, &y}};
  const auto stats = m.apply_patch(inserts, 4);
  EXPECT_EQ(stats.rows_inserted, 2u);
  EXPECT_EQ(stats.rows_kept, 2u);
  EXPECT_EQ(stats.rows_erased, 0u);
  // base[1] moves right (a row is spliced in ahead of it), so the patch
  // must stage rather than memmove in place.
  EXPECT_FALSE(stats.in_place);

  const std::vector<pdcs::Candidate> expected = {base[0], x, base[1], y};
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix(expected, 4)));
  expect_transpose_consistent(m);
}

TEST(CoverageMatrixPatch, EraseOnlyCompactsInPlace) {
  const std::vector<pdcs::Candidate> base = {
      patch_cand({0}, 1.0), patch_cand({1, 2}, 2.0), patch_cand({0, 3}, 3.0),
      patch_cand({2}, 4.0)};
  opt::CoverageMatrix m(base, 4);
  m.mark_dead(1);
  m.mark_dead(2);
  EXPECT_EQ(m.num_dead(), 2u);
  // Tombstoned rows stay readable until the patch compacts them away.
  EXPECT_TRUE(m.is_dead(1));
  ASSERT_EQ(m.covered(1).size(), 2u);
  EXPECT_EQ(m.covered(1)[1], 2u);

  const auto stats = m.apply_patch({}, 4);
  EXPECT_EQ(stats.rows_erased, 2u);
  EXPECT_EQ(stats.rows_kept, 2u);
  EXPECT_EQ(stats.rows_inserted, 0u);
  EXPECT_TRUE(stats.in_place);
  EXPECT_EQ(m.num_dead(), 0u);
  EXPECT_FALSE(m.is_dead(0));

  const std::vector<pdcs::Candidate> expected = {base[0], base[3]};
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix(expected, 4)));
  expect_transpose_consistent(m);
}

TEST(CoverageMatrixPatch, MixedPatchAndChainingMatchFreshBuilds) {
  std::vector<pdcs::Candidate> live = {patch_cand({0, 1}, 1.0),
                                       patch_cand({2}, 2.0),
                                       patch_cand({1, 3}, 3.0)};
  opt::CoverageMatrix m(live, 4);

  // Patch 1: drop the middle row, splice a fat row in at the front.
  const pdcs::Candidate x = patch_cand({0, 1, 2, 3}, 5.0);
  m.mark_dead(1);
  m.apply_patch({{{0, &x}}}, 4);
  live = {x, live[0], live[2]};
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix(live, 4)));
  expect_transpose_consistent(m);

  // Patch 2: replace the tail row (erase + insert at the same position).
  const pdcs::Candidate y = patch_cand({3}, 6.0);
  m.mark_dead(2);
  m.apply_patch({{{2, &y}}}, 4);
  live = {live[0], live[1], y};
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix(live, 4)));
  expect_transpose_consistent(m);

  // Patch 3: erase everything, insert one row — still equivalent.
  m.mark_dead(0);
  m.mark_dead(1);
  m.mark_dead(2);
  const pdcs::Candidate z = patch_cand({0}, 7.0);
  m.apply_patch({{{0, &z}}}, 4);
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix({{z}}, 4)));
  expect_transpose_consistent(m);
}

TEST(CoverageMatrixPatch, RemovedDeviceRemapsKeptColumns) {
  // Device 2 disappears: rows covering it die, surviving ids > 2 shift down.
  const std::vector<pdcs::Candidate> base = {
      patch_cand({0, 1}, 1.0), patch_cand({1, 3}, 2.0),
      patch_cand({2}, 3.0), patch_cand({3}, 4.0)};
  opt::CoverageMatrix m(base, 4);
  m.mark_dead(2);
  const auto stats = m.apply_patch({}, 3, /*removed_device=*/2);
  EXPECT_EQ(stats.rows_erased, 1u);
  EXPECT_EQ(m.num_devices(), 3u);

  std::vector<pdcs::Candidate> expected = {base[0], base[1], base[3]};
  expected[1].covered = {1, 2};
  expected[2].covered = {2};
  EXPECT_TRUE(m.same_as(opt::CoverageMatrix(expected, 3)));
  expect_transpose_consistent(m);
}

TEST(CoverageMatrixPatch, TombstonedMatrixNeverEqualsAClean) {
  const std::vector<pdcs::Candidate> base = {patch_cand({0}, 1.0),
                                             patch_cand({1}, 2.0)};
  opt::CoverageMatrix a(base, 2);
  opt::CoverageMatrix b(base, 2);
  EXPECT_TRUE(a.same_as(b));
  a.mark_dead(0);
  a.mark_dead(0);  // idempotent
  EXPECT_EQ(a.num_dead(), 1u);
  EXPECT_FALSE(a.same_as(b));
  EXPECT_FALSE(b.same_as(a));
}

// End-to-end: greedy over a patched matrix is bit-identical to greedy over
// a matrix built cold from the surviving candidates — with and without a
// thread pool (the warm overload's pooled argmax path).
TEST(CoverageMatrixPatch, PatchedMatrixDrivesIdenticalGreedy) {
  const auto scenario = test::small_paper_scenario(23, 2, 2);
  const auto extraction = pdcs::extract_all(scenario);
  const auto& cands = extraction.candidates;
  ASSERT_GE(cands.size(), 8u);

  opt::CoverageMatrix patched(cands, scenario.num_devices());
  std::vector<pdcs::Candidate> survivors;
  std::uint32_t new_row = 0;
  std::vector<opt::CoverageMatrix::RowInsert> inserts;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (i % 3 == 1) {
      patched.mark_dead(i);
    } else {
      survivors.push_back(cands[i]);
      ++new_row;
    }
  }
  // Splice the first two dead ones back at the end (re-insertion exercises
  // the mixed path on real extraction rows).
  std::size_t spliced = 0;
  for (std::size_t i = 0; i < cands.size() && spliced < 2; ++i) {
    if (i % 3 == 1) {
      survivors.push_back(cands[i]);
      inserts.push_back({new_row++, &cands[i]});
      ++spliced;
    }
  }
  patched.apply_patch(inserts, scenario.num_devices());
  const opt::CoverageMatrix cold(survivors, scenario.num_devices());
  ASSERT_TRUE(patched.same_as(cold));

  parallel::ThreadPool pool(4);
  for (parallel::ThreadPool* workers : {(parallel::ThreadPool*)nullptr,
                                        &pool}) {
    const auto warm = opt::select_strategies(
        scenario, patched, opt::GreedyMode::kLazyGlobal,
        opt::ObjectiveKind::kUtility, workers);
    const auto fresh = opt::select_strategies(
        scenario, cold, opt::GreedyMode::kLazyGlobal,
        opt::ObjectiveKind::kUtility, workers);
    expect_results_identical(warm, fresh,
                             workers ? "pooled" : "sequential");
  }
}

}  // namespace
}  // namespace hipo
