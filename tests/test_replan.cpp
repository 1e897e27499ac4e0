// core::DeltaSession: the operational layer over the incremental re-solve —
// cold construction equals core::solve, every apply() couples the new
// placement to a min-switching-cost redeployment plan from the previous one.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/core/replan.hpp"
#include "src/core/solver.hpp"
#include "src/ext/redeploy.hpp"
#include "src/model/scenario.hpp"
#include "src/util/error.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_placements_identical(const model::Placement& a,
                                 const model::Placement& b,
                                 const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].pos.x), bits(b[i].pos.x)) << label << " slot " << i;
    EXPECT_EQ(bits(a[i].pos.y), bits(b[i].pos.y)) << label << " slot " << i;
    EXPECT_EQ(bits(a[i].orientation), bits(b[i].orientation))
        << label << " slot " << i;
    EXPECT_EQ(a[i].type, b[i].type) << label << " slot " << i;
  }
}

TEST(ReplanOptions, RejectsOptionCombinationsWithNoIncrementalPath) {
  core::SolveOptions local;
  local.local_search = true;
  EXPECT_THROW(core::replan_options(local), ConfigError);

  const core::SolveOptions plain;
  const auto replan = core::replan_options(plain);
  EXPECT_EQ(replan.delta.mode, plain.greedy);
  EXPECT_EQ(replan.delta.workers, plain.pool);
}

TEST(DeltaSession, ColdConstructionMatchesSolve) {
  const auto scenario = test::small_paper_scenario(11);
  const core::DeltaSession session(scenario.to_config());
  const auto cold = core::solve(scenario);
  expect_placements_identical(session.placement(), cold.placement, "cold");
}

TEST(DeltaSession, ApplyCouplesReplanToARedeploymentPlan) {
  const auto scenario = test::small_paper_scenario(11);
  core::DeltaSession session(scenario.to_config());
  const model::Placement before = session.placement();
  const std::size_t num_types = scenario.num_charger_types();

  opt::DeltaOp op;
  op.kind = opt::DeltaOp::Kind::kRemoveDevice;
  op.index = 0;
  const auto result = session.apply(op);

  // The new placement is the session's and bit-identical to a cold solve of
  // the mutated scenario.
  expect_placements_identical(result.placement, session.placement(), "apply");
  const model::Scenario mutated{
      model::Scenario::Config(session.solver().config())};
  expect_placements_identical(result.placement,
                              core::solve(mutated).placement, "vs cold");
  EXPECT_EQ(bits(result.utility),
            bits(session.solver().result().exact_utility));
  EXPECT_GT(result.stats.tasks_total, 0u);

  // The redeployment plan is a consistent partial matching between the two
  // placements: every old charger either transfers or is recalled, every
  // new slot is either transferred into or freshly deployed, and the two
  // direction maps agree.
  const auto& plan = result.redeploy;
  ASSERT_EQ(plan.to_of.size(), before.size());
  ASSERT_EQ(plan.from_of.size(), result.placement.size());
  EXPECT_EQ(plan.transferred + plan.recalled, before.size());
  EXPECT_EQ(plan.transferred + plan.deployed, result.placement.size());
  EXPECT_GE(plan.total_cost, 0.0);
  EXPECT_GE(plan.max_cost, 0.0);
  for (std::size_t i = 0; i < plan.to_of.size(); ++i) {
    if (plan.to_of[i] == ext::kUnassigned) continue;
    ASSERT_LT(plan.to_of[i], plan.from_of.size());
    EXPECT_EQ(plan.from_of[plan.to_of[i]], i);
    EXPECT_EQ(before[i].type, result.placement[plan.to_of[i]].type);
    EXPECT_LT(before[i].type, num_types);
  }

  // A second delta replans from the post-first-delta placement.
  opt::DeltaOp move;
  move.kind = opt::DeltaOp::Kind::kMoveDevice;
  move.index = 0;
  move.pos = session.scenario().devices()[0].pos;
  move.pos.x += 0.5;
  const model::Placement mid = session.placement();
  const auto second = session.apply(move);
  ASSERT_EQ(second.redeploy.to_of.size(), mid.size());
}

TEST(DeltaSession, InvalidOpLeavesSessionUsable) {
  const auto scenario = test::small_paper_scenario(11);
  core::DeltaSession session(scenario.to_config());
  const model::Placement before = session.placement();

  opt::DeltaOp bad;
  bad.kind = opt::DeltaOp::Kind::kRemoveDevice;
  bad.index = 10'000;
  EXPECT_THROW(session.apply(bad), ConfigError);
  expect_placements_identical(session.placement(), before, "after throw");

  opt::DeltaOp ok;
  ok.kind = opt::DeltaOp::Kind::kRemoveDevice;
  ok.index = 0;
  EXPECT_NO_THROW(session.apply(ok));
}

}  // namespace
}  // namespace hipo
