#include "core/autotuner.hpp"

#include <gtest/gtest.h>

#include "workloads/suite.hpp"

namespace pmemflow::core {
namespace {

TEST(AutoTuner, ReportIsConsistent) {
  const Executor executor;
  const auto spec =
      workloads::make_workflow(workloads::Family::kMicro64MB, 8);
  auto report = tune(executor, spec);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->sweep.results.size(), 4u);
  EXPECT_EQ(report->best, report->sweep.best().config);
  EXPECT_GE(report->rule_based_regret, 1.0);
  EXPECT_GE(report->model_based_regret, 1.0);
}

TEST(AutoTuner, RegretOfBestConfigIsOne) {
  const Executor executor;
  const auto spec =
      workloads::make_workflow(workloads::Family::kMiniAmrMatrixMult, 24);
  auto report = tune(executor, spec);
  ASSERT_TRUE(report.has_value());
  // If a recommender picked the empirical best, its regret is exactly 1.
  if (report->rule_based.config == report->best) {
    EXPECT_DOUBLE_EQ(report->rule_based_regret, 1.0);
  }
  if (report->model_based.config == report->best) {
    EXPECT_DOUBLE_EQ(report->model_based_regret, 1.0);
  }
}

TEST(AutoTuner, ModelBasedRegretIsBoundedAcrossSuite) {
  // The model-based recommender shares the simulator's allocator, so
  // its choice should never be catastrophically wrong: within 40 % of
  // the empirical best for every suite workflow.
  const Executor executor;
  for (workloads::Family family : workloads::all_families()) {
    const auto spec = workloads::make_workflow(family, 16);
    auto report = tune(executor, spec);
    ASSERT_TRUE(report.has_value()) << spec.label;
    EXPECT_LT(report->model_based_regret, 1.4) << spec.label;
  }
}

TEST(AutoTuner, ProfileIsPopulated) {
  const Executor executor;
  const auto spec =
      workloads::make_workflow(workloads::Family::kGtcReadOnly, 16);
  auto report = tune(executor, spec);
  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->profile.simulation.iteration_ns, 0.0);
  EXPECT_GT(report->profile.analytics.iteration_ns, 0.0);
  EXPECT_EQ(report->profile.ranks, 16u);
}

TEST(AutoTuner, PropagatesErrors) {
  const Executor executor;
  auto spec = workloads::make_workflow(workloads::Family::kMicro64MB, 8);
  spec.ranks = 100;
  EXPECT_FALSE(tune(executor, spec).has_value());
}

TEST(AutoTuner, RunsOnlyTheSweep) {
  // The profile comes from the sweep's own serial runs, so tuning adds
  // exactly the allocator work of one sweep.
  const auto spec =
      workloads::make_workflow(workloads::Family::kGtcMatrixMult, 16);
  const Executor tuned;
  ASSERT_TRUE(tune(tuned, spec).has_value());
  const Executor swept;
  ASSERT_TRUE(swept.sweep(spec).has_value());

  const auto& counted = tuned.runner().allocator_counters();
  const auto& expected = swept.runner().allocator_counters();
  EXPECT_GT(expected.allocate_calls, 0u);
  EXPECT_EQ(counted.allocate_calls, expected.allocate_calls);
  EXPECT_EQ(counted.cache_hits, expected.cache_hits);
  EXPECT_EQ(counted.solves, expected.solves);
}

}  // namespace
}  // namespace pmemflow::core
