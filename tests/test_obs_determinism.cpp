// Observability must be write-only: solver output is bit-identical with
// metrics + tracing enabled or disabled, for any worker count. This is the
// contract that lets instrumentation stay compiled into the hot path.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "src/core/solver.hpp"
#include "src/model/scenario_gen.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/util/rng.hpp"

namespace hipo {
namespace {

model::Scenario make_scenario() {
  model::GenOptions opt;
  opt.num_obstacles = 5;
  Rng rng(19);
  return model::make_paper_scenario(opt, rng);
}

core::SolveResult run(const model::Scenario& scenario, bool observability,
                      std::optional<std::size_t> threads) {
  obs::reset_metrics();
  obs::reset_trace();
  obs::set_metrics_enabled(observability);
  obs::set_trace_enabled(observability);
  core::SolveOptions options;
  std::optional<parallel::ThreadPool> pool;
  if (threads) {
    pool.emplace(*threads);
    options.pool = &*pool;
  }
  const auto result = core::solve(scenario, options);
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  return result;
}

void expect_bit_identical(const core::SolveResult& a,
                          const core::SolveResult& b) {
  // Exact comparisons throughout: the claim is bit-identity, not closeness.
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_EQ(a.placement[i].pos.x, b.placement[i].pos.x);
    EXPECT_EQ(a.placement[i].pos.y, b.placement[i].pos.y);
    EXPECT_EQ(a.placement[i].orientation, b.placement[i].orientation);
    EXPECT_EQ(a.placement[i].type, b.placement[i].type);
  }
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.approx_utility, b.approx_utility);
  EXPECT_EQ(a.greedy.selected, b.greedy.selected);
}

TEST(ObsDeterminism, OutputIdenticalWithObservabilityOnOrOff) {
  const auto scenario = make_scenario();
  const auto baseline = run(scenario, /*observability=*/false, std::nullopt);
  ASSERT_FALSE(baseline.placement.empty());

  for (const std::optional<std::size_t> threads :
       {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
        std::optional<std::size_t>{3}}) {
    SCOPED_TRACE(threads ? static_cast<int>(*threads) : -1);
    expect_bit_identical(baseline, run(scenario, false, threads));
    expect_bit_identical(baseline, run(scenario, true, threads));
  }
}

TEST(ObsDeterminism, ObservedRunProducesTelemetry) {
  const auto scenario = make_scenario();
  const auto result = run(scenario, /*observability=*/true,
                          std::optional<std::size_t>{3});
  ASSERT_FALSE(result.placement.empty());
  const auto snapshot = obs::metrics_snapshot();
  std::uint64_t positions = 0, seg_queries = 0;
  double solve_seconds = -1.0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "extract.positions") positions = c.value;
    if (c.name == "segment_index.segment_queries") seg_queries = c.value;
  }
  for (const auto& a : snapshot.accums) {
    if (a.name == "phase.solve.seconds") solve_seconds = a.sum;
  }
  EXPECT_GT(positions, 0u);
  EXPECT_GT(seg_queries, 0u);
  EXPECT_GT(solve_seconds, 0.0);

  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"solve\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"extract.device\""), std::string::npos);
  obs::reset_trace();
}

}  // namespace
}  // namespace hipo
