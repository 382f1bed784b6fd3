#include "service/profile_cache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "service/arrivals.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

workflow::WorkflowSpec small_spec(Bytes object_size,
                                  double analytics_ns_per_object = 0.0) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = object_size;
  sim.objects_per_rank = 4;
  sim.compute_ns = 1e6;
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = analytics_ns_per_object;
  return workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                            /*iterations=*/2);
}

void expect_identical_recommendation(const core::Recommendation& a,
                                     const core::Recommendation& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.table2_row, b.table2_row);
  for (std::size_t i = 0; i < a.predicted_ns.size(); ++i) {
    // Byte-identical, not approximately equal: a cache hit must return
    // exactly what a fresh characterization computes.
    EXPECT_EQ(a.predicted_ns[i], b.predicted_ns[i]) << "config " << i;
  }
}

TEST(ProfileCache, HitIsIdenticalToFreshCharacterization) {
  ProfileCache cache(8);
  const auto spec = small_spec(kMiB);

  auto first = cache.lookup(spec);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto second = cache.lookup(spec);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same object, so trivially identical...
  EXPECT_EQ(first->get(), second->get());

  // ...and equal to a from-scratch characterization, field for field.
  auto fresh = cache.characterize(spec);
  ASSERT_TRUE(fresh.has_value());
  expect_identical_recommendation((*second)->rule_based, fresh->rule_based);
  expect_identical_recommendation((*second)->model_based, fresh->model_based);
  EXPECT_EQ((*second)->runtime_ns, fresh->runtime_ns);
  EXPECT_EQ((*second)->best_index, fresh->best_index);
  EXPECT_EQ((*second)->profile.simulation.iteration_ns,
            fresh->profile.simulation.iteration_ns);
  EXPECT_EQ((*second)->profile.simulation.io_ns,
            fresh->profile.simulation.io_ns);
  EXPECT_EQ((*second)->profile.analytics.iteration_ns,
            fresh->profile.analytics.iteration_ns);
  EXPECT_EQ((*second)->profile.analytics.io_ns,
            fresh->profile.analytics.io_ns);
}

TEST(ProfileCache, RelabeledResubmissionHits) {
  ProfileCache cache(8);
  auto spec = small_spec(kMiB);
  ASSERT_TRUE(cache.lookup(spec).has_value());

  auto renamed = spec;
  renamed.label = "same-class-new-job-name";
  auto hit = cache.lookup(renamed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCache, EveryKeyedScalarReachesTheClassFingerprint) {
  // The cache memoizes class fingerprints per (model objects, launch
  // scalars). A spec that changes any one scalar on the *same* model
  // objects must get its own fingerprint, never the memoized one.
  ProfileCache cache(32);
  auto base = small_spec(kMiB);
  base.cost_override = stack::SoftwareCostModel{};  // all +0.0
  auto first = cache.lookup(base);
  ASSERT_TRUE(first.has_value());
  const std::uint64_t base_fp = workflow::class_fingerprint(base);
  EXPECT_EQ((*first)->fingerprint, base_fp);

  std::vector<std::pair<const char*, workflow::WorkflowSpec>> variants;
  auto vary = [&](const char* what, auto&& change) {
    workflow::WorkflowSpec variant = base;
    change(variant);
    variants.emplace_back(what, std::move(variant));
  };
  vary("ranks", [](auto& s) { s.ranks = 4; });
  vary("iterations", [](auto& s) { s.iterations = 3; });
  vary("stack",
       [](auto& s) { s.stack = workflow::WorkflowSpec::Stack::kNova; });
  vary("no cost override", [](auto& s) { s.cost_override.reset(); });
  vary("write_ns_per_op",
       [](auto& s) { s.cost_override->write_ns_per_op = 50; });
  vary("read_ns_per_op",
       [](auto& s) { s.cost_override->read_ns_per_op = 50; });
  vary("write_ns_per_byte",
       [](auto& s) { s.cost_override->write_ns_per_byte = 0.01; });
  vary("read_ns_per_byte",
       [](auto& s) { s.cost_override->read_ns_per_byte = 0.01; });
  // -0.0 == +0.0 as a double, but the fingerprint hashes bit patterns.
  vary("negative zero",
       [](auto& s) { s.cost_override->read_ns_per_op = -0.0; });
  vary("channel_capacity", [](auto& s) { s.channel_capacity = 2; });
  vary("verify_reads", [](auto& s) { s.verify_reads = false; });

  for (const auto& [what, variant] : variants) {
    ASSERT_EQ(variant.simulation, base.simulation) << what;
    ASSERT_EQ(variant.analytics, base.analytics) << what;
    const std::uint64_t expected = workflow::class_fingerprint(variant);
    EXPECT_NE(expected, base_fp) << what;
    auto entry = cache.lookup(variant);
    ASSERT_TRUE(entry.has_value()) << what << ": " << entry.error().message;
    EXPECT_EQ((*entry)->fingerprint, expected) << what;
  }
  EXPECT_EQ(cache.stats().misses, 1 + variants.size());
  EXPECT_EQ(cache.stats().hits, 0u);

  // The base class still hits its own entry.
  auto again = cache.lookup(base);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProfileCache, IdenticalModelObjectsStillHit) {
  // The memo keys models by object identity; distinct objects that
  // behave identically must still share one cache entry.
  ProfileCache cache(8);
  const auto a = small_spec(kMiB);
  const auto b = small_spec(kMiB);
  ASSERT_NE(a.simulation, b.simulation);
  ASSERT_NE(a.analytics, b.analytics);

  auto first = cache.lookup(a);
  auto second = cache.lookup(b);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCache, EvictsLeastRecentlyUsed) {
  ProfileCache cache(2);
  const auto a = small_spec(256 * kKiB);
  const auto b = small_spec(kMiB);
  const auto c = small_spec(4 * kMiB);

  ASSERT_TRUE(cache.lookup(a).has_value());  // {a}
  ASSERT_TRUE(cache.lookup(b).has_value());  // {b, a}
  ASSERT_TRUE(cache.lookup(a).has_value());  // {a, b} — a refreshed
  ASSERT_TRUE(cache.lookup(c).has_value());  // {c, a} — b evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  ASSERT_TRUE(cache.lookup(a).has_value());  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.lookup(b).has_value());  // re-characterized
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ProfileCache, EvictedEntryPointerStaysValid) {
  ProfileCache cache(1);
  const auto a = small_spec(256 * kKiB);
  const auto b = small_spec(kMiB);
  auto first = cache.lookup(a);
  ASSERT_TRUE(first.has_value());
  const auto held = *first;  // keep the shared_ptr across eviction
  ASSERT_TRUE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->fingerprint, workflow::class_fingerprint(a));
  EXPECT_GT(held->best_runtime_ns(), 0u);
}

TEST(ProfileCache, RuntimesComeFromTheOracleSweep) {
  ProfileCache cache(4);
  auto entry = cache.lookup(small_spec(kMiB, 5e4));
  ASSERT_TRUE(entry.has_value());
  const auto& cached = **entry;
  for (SimDuration runtime : cached.runtime_ns) {
    EXPECT_GT(runtime, 0u);
    EXPECT_GE(runtime, cached.best_runtime_ns());
  }
  EXPECT_EQ(cached.runtime_ns[cached.best_index], cached.best_runtime_ns());
}

TEST(ProfileCache, ErrorsAreNotCached) {
  ProfileCache cache(4);
  auto bad = small_spec(kMiB);
  bad.ranks = 1000;  // exceeds per-socket cores: characterization fails
  EXPECT_FALSE(cache.lookup(bad).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCache, ArrivalPoolClassesAllCacheable) {
  // Every class the arrival generator can produce characterizes
  // successfully and lands in the cache.
  ProfileCache cache(64);
  for (const auto& spec : make_class_pool(6, /*seed=*/7)) {
    ASSERT_TRUE(cache.lookup(spec).has_value()) << spec.label;
  }
  EXPECT_EQ(cache.size(), 6u);
}

TEST(ProfileCache, ColdMissRunsExactlyOneSweep) {
  // A miss characterizes from the Table I sweep alone: its allocator
  // work equals one sweep on a fresh executor of the same backend, on
  // the default backend and on a cross-backend executor alike.
  const auto spec = small_spec(kMiB, 5e4);
  for (const char* name : {"optane-gen1", "optane-gen2"}) {
    SCOPED_TRACE(name);
    auto backend = devices::parse_backend(name);
    ASSERT_TRUE(backend.has_value());
    ProfileCache cache(4);
    ASSERT_TRUE(cache.lookup(spec, *backend).has_value());
    const core::Executor reference{
        workflow::Runner(topo::PlatformSpec{}, *backend)};
    ASSERT_TRUE(reference.sweep(spec).has_value());

    const auto counted = cache.allocator_counters();
    const auto& expected = reference.runner().allocator_counters();
    EXPECT_GT(expected.allocate_calls, 0u);
    EXPECT_EQ(counted.allocate_calls, expected.allocate_calls);
    EXPECT_EQ(counted.cache_hits, expected.cache_hits);
    EXPECT_EQ(counted.solves, expected.solves);
  }
}

}  // namespace
}  // namespace pmemflow::service
