#include "core/recommender.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::core {
namespace {

class RecommenderTest : public ::testing::Test {
 protected:
  Executor executor_;
  Recommender recommender_;

  WorkflowProfile profile_of(const workflow::WorkflowSpec& spec) {
    auto profile = characterize(executor_, spec);
    EXPECT_TRUE(profile.has_value());
    return *std::move(profile);
  }
};

TEST_F(RecommenderTest, EstimatesArePositiveForAllConfigs) {
  const auto spec =
      workloads::make_workflow(workloads::Family::kMicro64MB, 16);
  const auto profile = profile_of(spec);
  for (const auto& config : all_configs()) {
    EXPECT_GT(recommender_.estimate_ns(profile, spec, config), 0.0)
        << config.label();
  }
}

TEST_F(RecommenderTest, ModelBasedFillsAllPredictions) {
  const auto spec =
      workloads::make_workflow(workloads::Family::kMiniAmrReadOnly, 16);
  const auto profile = profile_of(spec);
  const auto recommendation = recommender_.model_based(profile, spec);
  for (double predicted : recommendation.predicted_ns) {
    EXPECT_GT(predicted, 0.0);
  }
  EXPECT_EQ(recommendation.table2_row, 0);
}

TEST_F(RecommenderTest, ModelBasedPicksArgmin) {
  const auto spec =
      workloads::make_workflow(workloads::Family::kMicro2KB, 8);
  const auto profile = profile_of(spec);
  const auto recommendation = recommender_.model_based(profile, spec);
  const auto configs = all_configs();
  double best = recommendation.predicted_ns[0];
  std::size_t best_index = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    if (recommendation.predicted_ns[i] < best) {
      best = recommendation.predicted_ns[i];
      best_index = i;
    }
  }
  EXPECT_EQ(recommendation.config, configs[best_index]);
}

TEST_F(RecommenderTest, SerialEstimateIsSumOfPhases) {
  // For a pure-I/O workload, the serial estimate must exceed either
  // phase alone and the parallel estimate must exceed the slower phase.
  const auto spec =
      workloads::make_workflow(workloads::Family::kMicro64MB, 8);
  const auto profile = profile_of(spec);
  const double serial = recommender_.estimate_ns(
      profile, spec, {ExecutionMode::kSerial, Placement::kLocalWrite});
  const double parallel = recommender_.estimate_ns(
      profile, spec, {ExecutionMode::kParallel, Placement::kLocalWrite});
  EXPECT_GT(serial, 0.0);
  EXPECT_GT(parallel, 0.0);
}

TEST_F(RecommenderTest, RuleBasedReturnsAValidConfig) {
  // Totality: every suite workflow yields a recommendation.
  for (const auto& spec : workloads::full_suite()) {
    const auto profile = profile_of(spec);
    const auto recommendation = recommender_.rule_based(profile, spec);
    const auto label = recommendation.config.label();
    EXPECT_TRUE(label == "S-LocW" || label == "S-LocR" ||
                label == "P-LocW" || label == "P-LocR")
        << spec.label;
  }
}

TEST_F(RecommenderTest, RuleBasedMatchesTableRowsForSuiteWorkflows) {
  // The suite's workflows are exactly what Table II catalogs, so the
  // rule-based path should land in the table (row > 0) for most of
  // them rather than falling through to the model.
  int matched = 0;
  for (const auto& spec : workloads::full_suite()) {
    const auto profile = profile_of(spec);
    const auto recommendation = recommender_.rule_based(profile, spec);
    if (recommendation.table2_row > 0) ++matched;
  }
  EXPECT_GE(matched, 12);
}

TEST_F(RecommenderTest, EstimateRespectsConfigDifferences) {
  // For the bandwidth-bound 64 MB workload at high concurrency the
  // model must prefer local writes over remote writes in serial mode.
  const auto spec =
      workloads::make_workflow(workloads::Family::kMicro64MB, 24);
  const auto profile = profile_of(spec);
  const double locw = recommender_.estimate_ns(
      profile, spec, {ExecutionMode::kSerial, Placement::kLocalWrite});
  const double locr = recommender_.estimate_ns(
      profile, spec, {ExecutionMode::kSerial, Placement::kLocalRead});
  EXPECT_LT(locw, locr);
}

// Property: the model-based estimator (closed-form, same allocator as
// the simulator) must track the simulated runtime within a factor-level
// tolerance across random synthetic workflows -- it only omits
// transient effects (pipeline fill, barriers).
class EstimatorAccuracy : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EstimatorAccuracy, EstimateTracksSimulation) {
  Xoshiro256 rng(GetParam());
  workloads::SyntheticSimulation::Params sim;
  const Bytes sizes[] = {2 * kKB, 64 * kKiB, 4 * kMiB, 64 * kMB};
  sim.object_size = sizes[rng.below(4)];
  sim.objects_per_rank = 1 + rng.below(16);
  sim.compute_ns = (rng.below(2) == 0) ? 0.0 : rng.uniform(1e6, 1e8);
  sim.seed = rng();
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object =
      (rng.below(2) == 0) ? 0.0 : rng.uniform(1e3, 1e6);
  const auto spec = workloads::make_synthetic_workflow(
      sim, analytics, static_cast<std::uint32_t>(2 + rng.below(23)), 8);

  Executor executor;
  auto profile = characterize(executor, spec);
  ASSERT_TRUE(profile.has_value());
  Recommender recommender;

  for (const auto& config : all_configs()) {
    auto simulated = executor.execute(spec, config);
    ASSERT_TRUE(simulated.has_value());
    const double predicted =
        recommender.estimate_ns(*profile, spec, config);
    const double actual = static_cast<double>(simulated->run.total_ns);
    ASSERT_GT(actual, 0.0);
    const double ratio = predicted / actual;
    EXPECT_GT(ratio, 0.5) << spec.label << " " << config.label();
    EXPECT_LT(ratio, 2.0) << spec.label << " " << config.label();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorAccuracy,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace pmemflow::core
