#include "src/pdcs/candidate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/util/rng.hpp"

namespace hipo::pdcs {
namespace {

Candidate make_candidate(std::vector<std::size_t> covered,
                         std::vector<double> powers, std::size_t type = 0) {
  Candidate c;
  c.strategy.type = type;
  c.covered = std::move(covered);
  c.powers = std::move(powers);
  return c;
}

TEST(DominatedBy, StrictSubsetWithHigherPower) {
  const auto a = make_candidate({1, 3}, {0.1, 0.2});
  const auto b = make_candidate({1, 2, 3}, {0.1, 0.5, 0.3});
  EXPECT_TRUE(dominated_by(a, b));
  EXPECT_FALSE(dominated_by(b, a));
}

TEST(DominatedBy, SubsetButLowerPowerNotDominated) {
  const auto a = make_candidate({1}, {0.5});
  const auto b = make_candidate({1, 2}, {0.1, 0.1});
  EXPECT_FALSE(dominated_by(a, b));
}

TEST(DominatedBy, EquivalentCandidates) {
  const auto a = make_candidate({1, 2}, {0.1, 0.2});
  const auto b = make_candidate({1, 2}, {0.1, 0.2});
  EXPECT_TRUE(dominated_by(a, b));
  EXPECT_TRUE(dominated_by(b, a));
}

TEST(DominatedBy, DisjointSetsNotDominated) {
  const auto a = make_candidate({1}, {0.1});
  const auto b = make_candidate({2}, {0.1});
  EXPECT_FALSE(dominated_by(a, b));
  EXPECT_FALSE(dominated_by(b, a));
}

TEST(FilterDominated, KeepsMaximal) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1}, {0.1}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  cands.push_back(make_candidate({3}, {0.4}));
  const auto kept = filter_dominated(std::move(cands), 5);
  ASSERT_EQ(kept.size(), 2u);
}

TEST(FilterDominated, RemovesDuplicates) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.2}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(FilterDominated, DropsEmptyCoverage) {
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({}, {}));
  cands.push_back(make_candidate({1}, {0.1}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(FilterDominated, IncomparablePowersBothKept) {
  // Same coverage set, each better on a different device: neither dominates.
  std::vector<Candidate> cands;
  cands.push_back(make_candidate({1, 2}, {0.5, 0.1}));
  cands.push_back(make_candidate({1, 2}, {0.1, 0.5}));
  const auto kept = filter_dominated(std::move(cands), 5);
  EXPECT_EQ(kept.size(), 2u);
}

// Property: after filtering, (a) no kept candidate is dominated by another
// kept candidate; (b) every input candidate is dominated by (or equal to)
// some kept candidate.
class FilterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterPropertyTest, SoundAndComplete) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 13);
  const std::size_t num_devices = 12;
  std::vector<Candidate> input;
  for (int i = 0; i < 60; ++i) {
    Candidate c;
    c.strategy.type = 0;
    for (std::size_t j = 0; j < num_devices; ++j) {
      if (rng.uniform() < 0.3) {
        c.covered.push_back(j);
        // Quantized powers so domination chains actually occur.
        c.powers.push_back(0.1 * static_cast<double>(1 + rng.below(3)));
      }
    }
    input.push_back(c);
  }
  auto copy = input;
  const auto kept = filter_dominated(std::move(copy), num_devices);

  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (i == k) continue;
      // Strict domination between distinct kept candidates is forbidden;
      // mutual equivalence would have been deduplicated.
      EXPECT_FALSE(dominated_by(kept[i], kept[k]) &&
                   !dominated_by(kept[k], kept[i]));
    }
  }
  for (const auto& orig : input) {
    if (orig.covered.empty()) continue;
    bool covered = false;
    for (const auto& k : kept) {
      if (dominated_by(orig, k)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FilterPropertyTest, ::testing::Range(0, 15));

/// Reference implementation of the dominance filter: the same sort followed
/// by a full scan of all kept candidates with the merge-walk test alone (no
/// masks, no inverted index). The production filter prunes the scan to the
/// kept list of the candidate's least-popular device and screens with
/// word masks; survivors must be identical.
std::vector<Candidate> filter_dominated_reference(
    std::vector<Candidate> candidates, std::size_t num_devices) {
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> total_power(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (double p : candidates[i].powers) total_power[i] += p;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (candidates[x].covered.size() != candidates[y].covered.size())
      return candidates[x].covered.size() > candidates[y].covered.size();
    if (total_power[x] != total_power[y]) return total_power[x] > total_power[y];
    return x < y;
  });
  std::vector<Candidate> kept;
  for (std::size_t idx : order) {
    Candidate& cand = candidates[idx];
    if (cand.covers_nothing()) continue;
    for (std::size_t j : cand.covered) EXPECT_LT(j, num_devices);
    const bool dominated =
        std::any_of(kept.begin(), kept.end(),
                    [&](const Candidate& k) { return dominated_by(cand, k); });
    if (!dominated) kept.push_back(std::move(cand));
  }
  return kept;
}

class FilterEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterEquivalenceTest, MatchesFullScanReference) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  // Every fourth pool spans more than one 64-bit mask word.
  const std::size_t num_devices =
      GetParam() % 4 == 3 ? 65 + rng.below(100) : 1 + rng.below(20);
  std::vector<Candidate> input;
  const int n = 1 + static_cast<int>(rng.below(80));
  for (int i = 0; i < n; ++i) {
    Candidate c;
    c.strategy.type = 0;
    for (std::size_t j = 0; j < num_devices; ++j) {
      if (rng.uniform() < 0.4) {
        c.covered.push_back(j);
        c.powers.push_back(0.05 * static_cast<double>(1 + rng.below(4)));
      }
    }
    input.push_back(c);
  }
  auto a = input;
  auto b = input;
  const auto fast = filter_dominated(std::move(a), num_devices);
  const auto reference = filter_dominated_reference(std::move(b), num_devices);

  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].covered, reference[i].covered) << "survivor " << i;
    EXPECT_EQ(fast[i].powers, reference[i].powers) << "survivor " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FilterEquivalenceTest,
                         ::testing::Range(0, 20));

TEST(FilterDominated, SparseUniverseMatchesReference) {
  // The filter remaps covered ids onto their dense local universe so its
  // cost scales with the pool, not `num_devices` (extract_all runs it once
  // per device task against the global count). Survivors must still match
  // the reference when the covered ids are a scattered handful out of a
  // huge id space, including the last representable device.
  const std::size_t num_devices = 1'000'000;
  std::vector<Candidate> input;
  input.push_back(make_candidate({123, 500'000, 999'999}, {0.3, 0.3, 0.3}));
  input.push_back(make_candidate({123, 999'999}, {0.2, 0.2}));   // dominated
  input.push_back(make_candidate({123, 500'000}, {0.9, 0.1}));   // kept
  input.push_back(make_candidate({777'777}, {0.4}));             // disjoint
  input.push_back(make_candidate({123, 500'000, 999'999}, {0.3, 0.3, 0.3}));
  auto a = input;
  auto b = input;
  const auto fast = filter_dominated(std::move(a), num_devices);
  const auto reference = filter_dominated_reference(std::move(b), num_devices);
  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].covered, reference[i].covered) << "survivor " << i;
    EXPECT_EQ(fast[i].powers, reference[i].powers) << "survivor " << i;
  }
}

// Property behind the delta layer's partial re-filter: a row is only ever
// dominated by a row covering a superset of its devices, so its verdict is
// decided by the rows ⊇ it. Over any subset closed upward under ⊇, run in
// table order, the filter must return exactly the full run's survivors in
// that subset, in the full run's survivor order.
class FilterClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterClosureTest, UpwardClosedSubsetMatchesFullRunRestricted) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 11);
  const std::size_t num_devices = 4 + rng.below(10);
  std::vector<Candidate> pool;
  const int n = 1 + static_cast<int>(rng.below(90));
  for (int i = 0; i < n; ++i) {
    Candidate c;
    for (std::size_t j = 0; j < num_devices; ++j) {
      if (rng.uniform() < 0.35) {
        c.covered.push_back(j);
        // Quantized powers, so ties and domination chains occur.
        c.powers.push_back(0.1 * static_cast<double>(1 + rng.below(3)));
      }
    }
    // Exact duplicates, which the earlier row must win in both runs.
    pool.push_back(c);
    if (rng.uniform() < 0.1) pool.push_back(c);
  }
  const auto covers_all = [](const Candidate& big, const Candidate& small) {
    return std::includes(big.covered.begin(), big.covered.end(),
                         small.covered.begin(), small.covered.end());
  };

  DominanceFilter filter;
  const auto at = [&](std::size_t i) { return row_view(pool[i]); };
  const auto full_span = filter.run(RowSource(pool.size(), at), num_devices);
  const std::vector<std::size_t> full(full_span.begin(), full_span.end());

  for (int trial = 0; trial < 8; ++trial) {
    // The upward closure of a few random seed rows, in table order.
    std::vector<std::size_t> seeds;
    for (std::size_t k = 0; k <= rng.below(3); ++k) {
      seeds.push_back(rng.below(pool.size()));
    }
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (const std::size_t s : seeds) {
        if (covers_all(pool[i], pool[s])) {
          subset.push_back(i);
          break;
        }
      }
    }
    const auto sub_at = [&](std::size_t k) { return row_view(pool[subset[k]]); };
    std::vector<std::size_t> got;
    for (const std::size_t k :
         filter.run(RowSource(subset.size(), sub_at), num_devices)) {
      got.push_back(subset[k]);
    }
    std::vector<std::size_t> want;
    for (const std::size_t i : full) {
      if (std::binary_search(subset.begin(), subset.end(), i)) {
        want.push_back(i);
      }
    }
    EXPECT_EQ(got, want) << "trial " << trial << ", " << subset.size()
                         << " of " << pool.size() << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FilterClosureTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace hipo::pdcs
