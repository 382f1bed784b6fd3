#include "service/profile_cache.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "dag/runner.hpp"
#include "dag/spec.hpp"

namespace pmemflow::service {

ProfileCache::ProfileCache(std::size_t capacity, core::Executor executor,
                           core::Recommender recommender)
    : executor_(std::move(executor)),
      recommender_(recommender),
      default_device_fp_(executor_.runner().devices().fingerprint()),
      entries_(capacity),
      dag_entries_(capacity),
      class_fingerprints_(capacity) {}

ProfileCache::ClassKey::ClassKey(const workflow::WorkflowSpec& spec)
    : simulation(spec.simulation), analytics(spec.analytics) {
  const auto& cost = spec.cost_override;
  scalars = {spec.ranks,
             spec.iterations,
             static_cast<std::uint64_t>(spec.stack),
             spec.channel_capacity,
             spec.verify_reads,
             cost.has_value(),
             cost ? std::bit_cast<std::uint64_t>(cost->write_ns_per_op) : 0,
             cost ? std::bit_cast<std::uint64_t>(cost->read_ns_per_op) : 0,
             cost ? std::bit_cast<std::uint64_t>(cost->write_ns_per_byte) : 0,
             cost ? std::bit_cast<std::uint64_t>(cost->read_ns_per_byte) : 0};
}

std::size_t ProfileCache::ClassKeyHash::operator()(
    const ClassKey& key) const noexcept {
  // Only needs to spread keys across buckets, not to be stable.
  constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;
  std::uint64_t hash =
      reinterpret_cast<std::uintptr_t>(key.simulation.get()) * kMultiplier;
  hash = (hash ^ reinterpret_cast<std::uintptr_t>(key.analytics.get())) *
         kMultiplier;
  for (const std::uint64_t word : key.scalars) {
    hash = (hash ^ word) * kMultiplier;
  }
  return static_cast<std::size_t>(hash ^ (hash >> 32));
}

std::uint64_t ProfileCache::class_fingerprint(
    const workflow::WorkflowSpec& spec) {
  ClassKey key(spec);
  if (const std::uint64_t* fingerprint = class_fingerprints_.find(key)) {
    return *fingerprint;
  }
  const std::uint64_t fingerprint = workflow::class_fingerprint(spec);
  class_fingerprints_.insert(std::move(key), fingerprint);
  return fingerprint;
}

std::uint64_t ProfileCache::key_of(std::uint64_t class_fp,
                                   std::uint64_t device_fp) {
  Hasher64 hasher;
  hasher.update_u64(class_fp);
  hasher.update_u64(device_fp);
  return hasher.digest();
}

Expected<CachedProfile> ProfileCache::characterize_on(
    const workflow::WorkflowSpec& spec, const core::Executor& executor,
    std::uint64_t device_fp) const {
  auto report = core::tune(executor, spec, recommender_);
  if (!report.has_value()) return Unexpected{report.error()};

  CachedProfile cached;
  cached.fingerprint = workflow::class_fingerprint(spec);
  cached.device_fingerprint = device_fp;
  cached.profile = report->profile;
  cached.rule_based = report->rule_based;
  cached.model_based = report->model_based;
  const auto& results = report->sweep.results;
  PMEMFLOW_ASSERT(results.size() == cached.runtime_ns.size());
  for (std::size_t i = 0; i < cached.runtime_ns.size(); ++i) {
    cached.runtime_ns[i] = results[i].run.total_ns;
  }
  cached.best_index = report->sweep.best_index();
  return cached;
}

Expected<CachedProfile> ProfileCache::characterize(
    const workflow::WorkflowSpec& spec) const {
  return characterize_on(spec, executor_, default_device_fp_);
}

Expected<CachedProfile> ProfileCache::characterize(
    const workflow::WorkflowSpec& spec,
    const devices::NodeDevices& backend) const {
  const std::uint64_t device_fp = backend.fingerprint();
  if (device_fp == default_device_fp_) return characterize(spec);
  core::Executor executor{
      workflow::Runner(executor_.runner().platform(), backend)};
  auto result = characterize_on(spec, executor, device_fp);
  // The executor dies with this scope; fold its counters in first (on
  // the error path too — a failed sweep still ran the allocator).
  extra_allocator_counters_ += executor.runner().allocator_counters();
  return result;
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup_keyed(
    const workflow::WorkflowSpec& spec, const devices::NodeDevices* backend) {
  const std::uint64_t device_fp =
      backend == nullptr ? default_device_fp_ : backend->fingerprint();
  const std::uint64_t key = key_of(class_fingerprint(spec), device_fp);
  if (const auto* hit = entries_.find(key)) {
    ++stats_.hits;
    return *hit;
  }

  ++stats_.misses;
  auto fresh =
      backend == nullptr ? characterize(spec) : characterize(spec, *backend);
  if (!fresh.has_value()) return Unexpected{fresh.error()};

  auto entry = std::make_shared<const CachedProfile>(*std::move(fresh));
  if (entries_.insert(key, entry)) ++stats_.evictions;
  return entry;
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec) {
  return lookup_keyed(spec, nullptr);
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec, const devices::NodeDevices& backend) {
  return lookup_keyed(spec, &backend);
}

Expected<CachedDagProfile> ProfileCache::characterize_dag_on(
    const dag::DagSpec& spec, const devices::NodeDevices& backend,
    std::uint64_t device_fp) const {
  // Invalid specs are hard errors; a *valid* DAG that no socket
  // assignment fits is a placement outcome the scheduler handles
  // (graceful drop), so plan errors past validation mean "infeasible
  // here".
  if (auto status = dag::validate(spec); !status) {
    return Unexpected{status.error()};
  }
  CachedDagProfile cached;
  cached.fingerprint = dag::class_fingerprint(spec);
  cached.device_fingerprint = device_fp;
  cached.iterations = spec.iterations;
  for (const dag::DagEdge& edge : spec.edges) {
    const dag::DagComponent& producer =
        spec.components[*dag::component_index(spec, edge.producer)];
    cached.bytes_per_iteration +=
        producer.object_size * producer.objects_per_rank * producer.ranks;
    cached.objects_per_iteration +=
        static_cast<std::uint64_t>(producer.objects_per_rank) * producer.ranks;
  }

  const topo::PlatformSpec& platform = executor_.runner().platform();
  workflow::Runner runner(platform, backend);
  if (auto plan = dag::plan_spread(spec, platform); plan.has_value()) {
    auto run = dag::run(runner, spec, plan->run_options());
    if (!run.has_value()) return Unexpected{run.error()};
    cached.spread_feasible = true;
    cached.spread = *std::move(plan);
    cached.spread_runtime_ns = run->total_ns;
  }
  if (auto plan = dag::plan_fusion(spec, platform); plan.has_value()) {
    auto run = dag::run(runner, spec, plan->run_options());
    if (!run.has_value()) return Unexpected{run.error()};
    cached.fused_feasible = true;
    cached.fused = *std::move(plan);
    cached.fused_runtime_ns = run->total_ns;
  }
  // The runner dies with this scope; fold its counters in first.
  extra_allocator_counters_ += runner.allocator_counters();
  return cached;
}

Expected<CachedDagProfile> ProfileCache::characterize_dag(
    const dag::DagSpec& spec) const {
  return characterize_dag_on(spec, executor_.runner().devices(),
                             default_device_fp_);
}

Expected<CachedDagProfile> ProfileCache::characterize_dag(
    const dag::DagSpec& spec, const devices::NodeDevices& backend) const {
  const std::uint64_t device_fp = backend.fingerprint();
  if (device_fp == default_device_fp_) return characterize_dag(spec);
  return characterize_dag_on(spec, backend, device_fp);
}

Expected<std::shared_ptr<const CachedDagProfile>>
ProfileCache::lookup_dag_keyed(const dag::DagSpec& spec,
                               const devices::NodeDevices* backend) {
  const std::uint64_t device_fp =
      backend == nullptr ? default_device_fp_ : backend->fingerprint();
  const std::uint64_t key = key_of(dag::class_fingerprint(spec), device_fp);
  if (const auto* hit = dag_entries_.find(key)) {
    ++stats_.hits;
    return *hit;
  }

  ++stats_.misses;
  auto fresh = backend == nullptr ? characterize_dag(spec)
                                  : characterize_dag(spec, *backend);
  if (!fresh.has_value()) return Unexpected{fresh.error()};

  auto entry = std::make_shared<const CachedDagProfile>(*std::move(fresh));
  if (dag_entries_.insert(key, entry)) ++stats_.evictions;
  return entry;
}

Expected<std::shared_ptr<const CachedDagProfile>> ProfileCache::lookup_dag(
    const dag::DagSpec& spec) {
  return lookup_dag_keyed(spec, nullptr);
}

Expected<std::shared_ptr<const CachedDagProfile>> ProfileCache::lookup_dag(
    const dag::DagSpec& spec, const devices::NodeDevices& backend) {
  return lookup_dag_keyed(spec, &backend);
}

}  // namespace pmemflow::service
