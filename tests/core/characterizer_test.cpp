#include "core/characterizer.hpp"

#include <gtest/gtest.h>

#include "core/autotuner.hpp"
#include "devices/registry.hpp"
#include "service/profile_cache.hpp"
#include "workloads/analytics.hpp"
#include "workloads/gtc.hpp"
#include "workloads/microbench.hpp"
#include "workloads/miniamr.hpp"
#include "workloads/suite.hpp"

namespace pmemflow::core {
namespace {

TEST(Characterizer, PureIoComponentHasIoIndexNearOne) {
  const Executor executor;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMicro64MB, 8);
  auto profile = characterize(executor, spec);
  ASSERT_TRUE(profile.has_value());
  // Microbenchmark components perform only I/O (SIV-B).
  EXPECT_GT(profile->simulation.io_index(), 0.98);
  EXPECT_GT(profile->analytics.io_index(), 0.98);
}

TEST(Characterizer, GtcSimulationHasLowIoIndex) {
  const Executor executor;
  const auto spec = workloads::make_workflow(
      workloads::Family::kGtcReadOnly, 16);
  auto profile = characterize(executor, spec);
  ASSERT_TRUE(profile.has_value());
  // GTC is compute-heavy: "low Simulation I/O Index" (SIV-C / Fig 3).
  EXPECT_LT(profile->simulation.io_index(), 0.4);
  // The read-only analytics kernel is pure I/O.
  EXPECT_GT(profile->analytics.io_index(), 0.9);
}

TEST(Characterizer, MiniAmrSimulationIsIoHeavy) {
  const Executor executor;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16);
  auto profile = characterize(executor, spec);
  ASSERT_TRUE(profile.has_value());
  // miniAMR: I/O-heavy simulation kernel (SVI-A).
  EXPECT_GT(profile->simulation.io_index(), 0.6);
}

TEST(Characterizer, MatrixMultLowersAnalyticsIoIndex) {
  const Executor executor;
  const auto readonly = characterize(executor, workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16));
  const auto matmult = characterize(executor, workloads::make_workflow(
      workloads::Family::kMiniAmrMatrixMult, 16));
  ASSERT_TRUE(readonly.has_value() && matmult.has_value());
  EXPECT_LT(matmult->analytics.io_index(),
            readonly->analytics.io_index());
}

TEST(Characterizer, VolumesMatchTheModel) {
  const Executor executor;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16);
  auto profile = characterize(executor, spec);
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->simulation.object_size, 4608u);
  EXPECT_EQ(profile->simulation.objects_per_iteration, 33'000u);
  EXPECT_EQ(profile->simulation.bytes_per_iteration, 33'000u * 4608u);
}

TEST(Characterizer, FeatureDiscretization) {
  ComponentProfile pure_io;
  pure_io.iteration_ns = 100.0;
  pure_io.io_ns = 100.0;
  ComponentProfile compute_heavy;
  compute_heavy.iteration_ns = 100.0;
  compute_heavy.io_ns = 10.0;
  pure_io.object_size = 2048;
  compute_heavy.object_size = 2048;

  const auto features = derive_features(
      compute_heavy, pure_io, 24, /*small_threshold=*/16 * kKiB);
  EXPECT_EQ(features.sim_compute, Level::kHigh);
  EXPECT_EQ(features.sim_write, Level::kLow);
  EXPECT_EQ(features.analytics_compute, Level::kNil);
  EXPECT_EQ(features.analytics_read, Level::kHigh);
  EXPECT_TRUE(features.small_objects);
  EXPECT_EQ(features.concurrency, Level::kHigh);
}

TEST(Characterizer, ConcurrencyClasses) {
  ComponentProfile any;
  any.iteration_ns = 1.0;
  any.io_ns = 1.0;
  any.object_size = 64 * kMB;
  EXPECT_EQ(derive_features(any, any, 8, 16 * kKiB)
                .concurrency,
            Level::kLow);
  EXPECT_EQ(derive_features(any, any, 16, 16 * kKiB)
                .concurrency,
            Level::kMedium);
  EXPECT_EQ(derive_features(any, any, 24, 16 * kKiB)
                .concurrency,
            Level::kHigh);
}

TEST(Characterizer, LevelNames) {
  EXPECT_STREQ(to_string(Level::kNil), "Nil");
  EXPECT_STREQ(to_string(Level::kLow), "low");
  EXPECT_STREQ(to_string(Level::kMedium), "medium");
  EXPECT_STREQ(to_string(Level::kHigh), "high");
}

TEST(Characterizer, CountsItsRunsOnTheCallersExecutor) {
  const auto spec =
      workloads::make_workflow(workloads::Family::kGtcMatrixMult, 16);
  const Executor executor;
  ASSERT_TRUE(characterize(executor, spec).has_value());

  // A reference executor that runs exactly the two serial configs.
  const Executor reference;
  const auto configs = all_configs();
  ASSERT_TRUE(reference.execute(spec, configs[0]).has_value());
  ASSERT_TRUE(reference.execute(spec, configs[1]).has_value());

  const auto& counted = executor.runner().allocator_counters();
  const auto& expected = reference.runner().allocator_counters();
  EXPECT_GT(expected.allocate_calls, 0u);
  EXPECT_EQ(counted.allocate_calls, expected.allocate_calls);
  EXPECT_EQ(counted.cache_hits, expected.cache_hits);
  EXPECT_EQ(counted.solves, expected.solves);
}

void expect_identical_component(const ComponentProfile& a,
                                const ComponentProfile& b) {
  // Byte-identical, not approximately equal: the profile is the same
  // arithmetic over the same simulated runs, whichever path derives it.
  EXPECT_EQ(a.iteration_ns, b.iteration_ns);
  EXPECT_EQ(a.io_ns, b.io_ns);
  EXPECT_EQ(a.object_size, b.object_size);
  EXPECT_EQ(a.objects_per_iteration, b.objects_per_iteration);
  EXPECT_EQ(a.bytes_per_iteration, b.bytes_per_iteration);
}

void expect_identical_profile(const WorkflowProfile& a,
                              const WorkflowProfile& b) {
  expect_identical_component(a.simulation, b.simulation);
  expect_identical_component(a.analytics, b.analytics);
  EXPECT_EQ(a.ranks, b.ranks);
  EXPECT_TRUE(a.features == b.features);
}

class CharacterizeOnce : public ::testing::TestWithParam<std::string> {};

// characterize(), tune() and the service's profile cache derive one
// profile three ways: from two standalone runs, from a sweep, and from
// a sweep on a cache-owned executor. All three must agree exactly.
TEST_P(CharacterizeOnce, EveryPathDerivesTheSameProfile) {
  auto backend = devices::parse_backend(GetParam());
  ASSERT_TRUE(backend.has_value()) << backend.error().message;
  const Executor executor{workflow::Runner(topo::PlatformSpec{}, *backend)};
  service::ProfileCache cache(4);

  for (const auto& spec : workloads::full_suite()) {
    SCOPED_TRACE(spec.label);
    auto standalone = characterize(executor, spec);
    ASSERT_TRUE(standalone.has_value()) << standalone.error().message;
    auto tuned = tune(executor, spec);
    ASSERT_TRUE(tuned.has_value()) << tuned.error().message;
    auto cached = cache.characterize(spec, *backend);
    ASSERT_TRUE(cached.has_value()) << cached.error().message;

    expect_identical_profile(*standalone, tuned->profile);
    expect_identical_profile(*standalone, cached->profile);
  }
}

std::string backend_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(BuiltinBackends, CharacterizeOnce,
                         ::testing::Values("optane-gen1", "optane-gen2",
                                           "dram-like", "cxl-like"),
                         backend_name);

}  // namespace
}  // namespace pmemflow::core
