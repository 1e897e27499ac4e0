#include "src/opt/matroid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace hipo::opt {
namespace {

PartitionMatroid small_matroid() {
  // 6 elements: parts {0,0,1,1,1,2}, capacities {1, 2, 0}.
  return PartitionMatroid({0, 0, 1, 1, 1, 2}, {1, 2, 0});
}

TEST(PartitionMatroid, EmptySetIndependent) {
  const auto m = small_matroid();
  EXPECT_TRUE(m.independent({}));
}

TEST(PartitionMatroid, CapacityEnforced) {
  const auto m = small_matroid();
  const std::vector<std::size_t> ok{0, 2, 3};
  EXPECT_TRUE(m.independent(ok));
  const std::vector<std::size_t> both_of_part0{0, 1};
  EXPECT_FALSE(m.independent(both_of_part0));
  const std::vector<std::size_t> zero_cap{5};
  EXPECT_FALSE(m.independent(zero_cap));
}

TEST(PartitionMatroid, Rank) {
  const auto m = small_matroid();
  EXPECT_EQ(m.rank(), 3u);  // min(1,2) + min(2,3) + min(0,1)
}

TEST(PartitionMatroid, OutOfRangePartThrows) {
  EXPECT_THROW(PartitionMatroid({0, 3}, {1, 1}), hipo::ConfigError);
}

TEST(Tracker, AddAndSaturate) {
  const auto m = small_matroid();
  PartitionMatroid::Tracker t(m);
  EXPECT_TRUE(t.can_add(0));
  t.add(0);
  EXPECT_FALSE(t.can_add(1));  // part 0 full
  EXPECT_FALSE(t.can_add(5));  // zero capacity
  t.add(2);
  t.add(3);
  EXPECT_FALSE(t.can_add(4));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.size(), m.rank());  // saturated: nothing more can be added
}

TEST(Tracker, AddBeyondCapacityThrows) {
  const auto m = small_matroid();
  PartitionMatroid::Tracker t(m);
  t.add(0);
  EXPECT_THROW(t.add(1), hipo::InvariantError);
}

// Property-check the matroid axioms on random partition matroids:
// heredity (subsets of independent sets are independent) and the exchange
// property (|X| < |Y| independent → some y∈Y\X keeps X∪{y} independent).
class MatroidAxiomTest : public ::testing::TestWithParam<int> {};

TEST_P(MatroidAxiomTest, HeredityAndExchange) {
  hipo::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 23);
  const std::size_t parts = 1 + rng.below(4);
  const std::size_t n = 4 + rng.below(8);
  std::vector<std::size_t> part_of(n);
  for (auto& p : part_of) p = rng.below(parts);
  std::vector<std::size_t> caps(parts);
  for (auto& c : caps) c = rng.below(4);
  const PartitionMatroid m(part_of, caps);

  auto random_subset = [&](double density) {
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < density) s.push_back(i);
    }
    return s;
  };
  auto greedy_independent = [&](double density) {
    // Build an independent set by filtering a random subset.
    std::vector<std::size_t> used(parts, 0);
    std::vector<std::size_t> out;
    for (std::size_t i : random_subset(density)) {
      if (used[part_of[i]] < caps[part_of[i]]) {
        ++used[part_of[i]];
        out.push_back(i);
      }
    }
    return out;
  };

  for (int trial = 0; trial < 60; ++trial) {
    // Heredity.
    auto indep = greedy_independent(0.7);
    ASSERT_TRUE(m.independent(indep));
    std::vector<std::size_t> subset;
    for (std::size_t i : indep) {
      if (rng.uniform() < 0.5) subset.push_back(i);
    }
    EXPECT_TRUE(m.independent(subset));

    // Exchange.
    auto x = greedy_independent(0.4);
    auto y = greedy_independent(0.9);
    if (x.size() >= y.size()) continue;
    bool exchanged = false;
    for (std::size_t e : y) {
      if (std::find(x.begin(), x.end(), e) != x.end()) continue;
      auto extended = x;
      extended.push_back(e);
      if (m.independent(extended)) {
        exchanged = true;
        break;
      }
    }
    EXPECT_TRUE(exchanged) << "exchange axiom violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MatroidAxiomTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace hipo::opt
