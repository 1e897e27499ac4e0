#include "src/pdcs/extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "src/util/rng.hpp"
#include "tests/test_helpers.hpp"

namespace hipo::pdcs {
namespace {

TEST(ExtractAll, ProducesCandidatesForAllTypes) {
  const auto s = test::small_paper_scenario(11, 2, 1);
  const auto result = extract_all(s);
  EXPECT_FALSE(result.candidates.empty());
  EXPECT_EQ(result.per_type_counts.size(), s.num_charger_types());
  EXPECT_EQ(result.task_seconds.size(), s.num_devices());
  std::size_t total = 0;
  for (std::size_t c : result.per_type_counts) total += c;
  EXPECT_EQ(total, result.candidates.size());
  EXPECT_GE(result.raw_candidates, result.candidates.size());
}

TEST(ExtractAll, CandidatesGroupedByTypeInOrder) {
  const auto s = test::small_paper_scenario(12, 2, 1);
  const auto result = extract_all(s);
  // Candidates appear type-0 block first, then type-1, etc.
  std::size_t idx = 0;
  for (std::size_t q = 0; q < s.num_charger_types(); ++q) {
    for (std::size_t k = 0; k < result.per_type_counts[q]; ++k, ++idx) {
      EXPECT_EQ(result.candidates[idx].strategy.type, q);
    }
  }
}

TEST(ExtractAll, DeterministicAcrossRuns) {
  const auto s = test::small_paper_scenario(13, 2, 1);
  const auto r1 = extract_all(s);
  const auto r2 = extract_all(s);
  ASSERT_EQ(r1.candidates.size(), r2.candidates.size());
  for (std::size_t i = 0; i < r1.candidates.size(); ++i) {
    EXPECT_EQ(r1.candidates[i].strategy.pos, r2.candidates[i].strategy.pos);
    EXPECT_EQ(r1.candidates[i].covered, r2.candidates[i].covered);
  }
}

TEST(ExtractAll, ThreadPoolGivesSameCandidates) {
  const auto s = test::small_paper_scenario(14, 2, 1);
  const auto seq = extract_all(s);
  parallel::ThreadPool pool(4);
  const auto par = extract_all(s, ExtractOptions{}, &pool);
  ASSERT_EQ(seq.candidates.size(), par.candidates.size());
  for (std::size_t i = 0; i < seq.candidates.size(); ++i) {
    EXPECT_EQ(seq.candidates[i].strategy.pos, par.candidates[i].strategy.pos);
    EXPECT_EQ(seq.candidates[i].strategy.orientation,
              par.candidates[i].strategy.orientation);
    EXPECT_EQ(seq.candidates[i].covered, par.candidates[i].covered);
  }
}

TEST(ExtractAll, GlobalFilterRemovesDominated) {
  const auto s = test::small_paper_scenario(15, 2, 1);
  ExtractOptions no_filter;
  no_filter.global_filter = false;
  const auto unfiltered = extract_all(s, no_filter);
  const auto filtered = extract_all(s);
  EXPECT_LE(filtered.candidates.size(), unfiltered.candidates.size());
  // No kept candidate strictly dominated by another of the same type.
  for (std::size_t i = 0; i < filtered.candidates.size(); ++i) {
    for (std::size_t k = 0; k < filtered.candidates.size(); ++k) {
      if (i == k) continue;
      const auto& a = filtered.candidates[i];
      const auto& b = filtered.candidates[k];
      if (a.strategy.type != b.strategy.type) continue;
      EXPECT_FALSE(dominated_by(a, b) && !dominated_by(b, a));
    }
  }
}

TEST(ExtractAll, NoDevicesMeansNoCandidates) {
  auto cfg = test::simple_config();
  const model::Scenario s(std::move(cfg));
  const auto result = extract_all(s);
  EXPECT_TRUE(result.candidates.empty());
}

// --- the merge contract the perfbench replay depends on ------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Byte equality of two extraction results: every candidate's strategy,
/// covered set and powers bit for bit, plus the per-type and raw counts.
void expect_same_bytes(const ExtractionResult& want,
                       const ExtractionResult& got) {
  EXPECT_EQ(want.raw_candidates, got.raw_candidates);
  EXPECT_EQ(want.per_type_counts, got.per_type_counts);
  ASSERT_EQ(want.candidates.size(), got.candidates.size());
  for (std::size_t i = 0; i < want.candidates.size(); ++i) {
    const Candidate& a = want.candidates[i];
    const Candidate& b = got.candidates[i];
    ASSERT_EQ(a.strategy.type, b.strategy.type) << "candidate " << i;
    ASSERT_EQ(bits(a.strategy.pos.x), bits(b.strategy.pos.x)) << i;
    ASSERT_EQ(bits(a.strategy.pos.y), bits(b.strategy.pos.y)) << i;
    ASSERT_EQ(bits(a.strategy.orientation), bits(b.strategy.orientation))
        << "candidate " << i;
    ASSERT_EQ(a.covered, b.covered) << "candidate " << i;
    ASSERT_EQ(a.powers.size(), b.powers.size()) << "candidate " << i;
    for (std::size_t k = 0; k < a.powers.size(); ++k) {
      ASSERT_EQ(bits(a.powers[k]), bits(b.powers[k])) << "candidate " << i;
    }
  }
}

/// One slot per device, filled by extract_device_task directly.
std::vector<std::vector<Candidate>> task_table(const model::Scenario& s,
                                               const ExtractOptions& opt) {
  std::vector<std::vector<Candidate>> table(s.num_devices());
  for (std::size_t i = 0; i < s.num_devices(); ++i) {
    table[i] = extract_device_task(s, s.device_index(), i, opt);
  }
  return table;
}

/// Parameter: ExtractOptions::global_filter.
class MergeContract : public ::testing::TestWithParam<bool> {
 protected:
  ExtractOptions options() const {
    ExtractOptions opt;
    opt.global_filter = GetParam();
    return opt;
  }
};

TEST_P(MergeContract, FinalizeByTypeOnTaskMajorStreamsMatchesExtractAll) {
  const auto s = test::small_paper_scenario(16, 2, 1);
  const ExtractOptions opt = options();
  const auto want = extract_all(s, opt);
  parallel::ThreadPool pool(3);
  for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr),
                                  &pool}) {
    std::size_t raw = 0;
    std::vector<std::vector<Candidate>> by_type(s.num_charger_types());
    for (auto& task : task_table(s, opt)) {
      raw += task.size();
      for (auto& c : task) by_type[c.strategy.type].push_back(std::move(c));
    }
    expect_same_bytes(
        want, finalize_by_type(std::move(by_type), raw, s.num_devices(), opt,
                               p));
  }
}

TEST_P(MergeContract, MergeByTaskOnTaskTableMatchesExtractAll) {
  const auto s = test::small_paper_scenario(17, 2, 1);
  const ExtractOptions opt = options();
  const auto want = extract_all(s, opt);
  parallel::ThreadPool pool(3);
  for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr),
                                  &pool}) {
    expect_same_bytes(want, merge_by_task(s, task_table(s, opt), opt, p));
  }
}

INSTANTIATE_TEST_SUITE_P(GlobalFilter, MergeContract, ::testing::Bool());

TEST(FilterByType, UnfilteredKeepsEveryRowInTableOrder) {
  const auto s = test::small_paper_scenario(18, 2, 1);
  ExtractOptions opt;
  opt.global_filter = false;
  const auto table = task_table(s, opt);
  const auto kept =
      filter_by_type(table, s.num_charger_types(), s.num_devices(), opt);
  ASSERT_EQ(kept.size(), s.num_charger_types());
  std::vector<std::vector<RowRef>> want(s.num_charger_types());
  for (std::size_t slot = 0; slot < table.size(); ++slot) {
    for (std::size_t row = 0; row < table[slot].size(); ++row) {
      want[table[slot][row].strategy.type].push_back({slot, row});
    }
  }
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(kept[q].size(), want[q].size()) << "type " << q;
    for (std::size_t k = 0; k < want[q].size(); ++k) {
      EXPECT_EQ(kept[q][k].slot, want[q][k].slot);
      EXPECT_EQ(kept[q][k].row, want[q][k].row);
    }
  }
}

TEST(RunTasks, WritesOnlyTheListedSlotsWithTheirTaskOutput) {
  const auto s = test::small_paper_scenario(19, 2, 1);
  const ExtractOptions opt;
  const auto want = task_table(s, opt);
  ASSERT_GE(s.num_devices(), 4u);
  const std::vector<std::size_t> tasks{1, 3};
  parallel::ThreadPool pool(3);
  std::vector<std::vector<Candidate>> table(s.num_devices());
  const auto seconds = run_tasks(s, tasks, opt, &pool, table);
  EXPECT_EQ(seconds.size(), tasks.size());
  for (std::size_t i = 0; i < s.num_devices(); ++i) {
    const bool listed = i == 1 || i == 3;
    ASSERT_EQ(table[i].size(), listed ? want[i].size() : 0u) << "slot " << i;
    for (std::size_t r = 0; r < table[i].size(); ++r) {
      EXPECT_EQ(table[i][r].covered, want[i][r].covered);
      EXPECT_EQ(bits(table[i][r].strategy.orientation),
                bits(want[i][r].strategy.orientation));
    }
  }
}

TEST(SimulatedDistributed, SingleMachineIsTotal) {
  const std::vector<double> tasks{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(simulated_distributed_seconds(tasks, 1), 6.0);
}

TEST(SimulatedDistributed, ManyMachinesIsMaxTask) {
  const std::vector<double> tasks{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(simulated_distributed_seconds(tasks, 3), 3.0);
  EXPECT_DOUBLE_EQ(simulated_distributed_seconds(tasks, 10), 3.0);
}

TEST(SimulatedDistributed, MonotoneInMachines) {
  hipo::Rng rng(5);
  std::vector<double> tasks;
  for (int i = 0; i < 40; ++i) tasks.push_back(rng.uniform(0.1, 2.0));
  double prev = simulated_distributed_seconds(tasks, 1);
  for (std::size_t m = 2; m <= 48; ++m) {
    const double cur = simulated_distributed_seconds(tasks, m);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(SimulatedDistributed, LptWithinListSchedulingBound) {
  // Any list scheduler satisfies makespan <= total/m + (1 − 1/m)·max_task.
  hipo::Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> tasks;
    const int n = 5 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) tasks.push_back(rng.uniform(0.01, 3.0));
    const auto m = 2 + rng.below(6);
    double total = 0.0, longest = 0.0;
    for (double t : tasks) {
      total += t;
      longest = std::max(longest, t);
    }
    const double bound =
        total / static_cast<double>(m) +
        (1.0 - 1.0 / static_cast<double>(m)) * longest;
    EXPECT_LE(simulated_distributed_seconds(tasks, m, true), bound + 1e-9);
  }
}

TEST(SimulatedDistributed, LptBeatsRoundRobinOnSkewedLoads) {
  // Round-robin stacks the two longest tasks on machine 0 here; LPT spreads
  // them.
  const std::vector<double> tasks{10.0, 1.0, 9.0, 1.0};
  EXPECT_LT(simulated_distributed_seconds(tasks, 2, true),
            simulated_distributed_seconds(tasks, 2, false));
}

TEST(SimulatedDistributed, EmptyTasksZero) {
  EXPECT_DOUBLE_EQ(simulated_distributed_seconds({}, 5), 0.0);
}

}  // namespace
}  // namespace hipo::pdcs
