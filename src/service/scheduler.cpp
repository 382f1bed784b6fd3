#include "service/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "service/replay.hpp"

namespace pmemflow::service {

std::size_t config_index(const core::DeploymentConfig& config) {
  const bool local_read = config.placement == core::Placement::kLocalRead;
  switch (config.mode) {
    case core::ExecutionMode::kSerial: return local_read ? 1 : 0;
    case core::ExecutionMode::kParallel: return local_read ? 3 : 2;
  }
  PMEMFLOW_ASSERT_MSG(false, "config not in Table I");
  return 0;
}

OnlineScheduler::OnlineScheduler(ServiceConfig config, core::Executor executor,
                                 core::Recommender recommender)
    : config_(std::move(config)),
      interference_(executor.runner()),
      cache_(config_.cache_capacity, std::move(executor), recommender) {}

Expected<ServiceResult> OnlineScheduler::run(
    std::span<const Submission> submissions) {
  if (config_.nodes == 0) {
    return make_error("service config needs at least one fleet node");
  }
  if (!config_.node_specs.empty() &&
      config_.node_specs.size() != config_.nodes) {
    return make_error(
        format("node_specs has %zu entries for a %u-node fleet "
               "(must be empty or exactly one per node)",
               config_.node_specs.size(), config_.nodes));
  }
  if (config_.sharding.regions > 1 || config_.sharding.threads > 1) {
    return make_error(
        format("fleet sharding was removed: sharding.regions (%u) and "
               "sharding.threads (%u) must be 1",
               config_.sharding.regions, config_.sharding.threads));
  }
  if (submissions.size() > std::numeric_limits<std::uint32_t>::max()) {
    return make_error(format("a stream holds at most %u submissions, not %zu",
                             std::numeric_limits<std::uint32_t>::max(),
                             submissions.size()));
  }

  // Cache stats and allocator counters are cumulative (they survive
  // across runs); this run's share is the before/after delta.
  auto allocator_counters = [&] {
    pmemsim::AllocatorCounters total = cache_.allocator_counters();
    total += interference_.allocator_counters();
    return total;
  };
  const CacheStats cache_before = cache_.stats();
  const pmemsim::AllocatorCounters counters_before = allocator_counters();

  // Replay order is (arrival, id); the stream itself is never copied.
  std::vector<std::uint32_t> order(submissions.size());
  std::iota(order.begin(), order.end(), 0u);
  std::ranges::stable_sort(order, {}, [&](std::uint32_t i) {
    return std::pair(submissions[i].arrival_ns, submissions[i].id);
  });

  Replay replay(config_, cache_, interference_);
  replay.run(submissions, order);
  if (replay.failure().has_value()) return Unexpected{*replay.failure()};
  PMEMFLOW_ASSERT_MSG(replay.checkpoints_empty(),
                      "checkpointed victim never resumed");

  ServiceResult result;
  result.completions = replay.take_completions();
  SimDuration makespan = 0;
  for (const CompletionRecord& record : result.completions) {
    makespan = std::max(makespan, record.finish_ns);
  }

  // Every node is normalized by the fleet makespan.
  const Fleet& fleet = replay.fleet();
  std::vector<double> utilization;
  utilization.reserve(fleet.size());
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    utilization.push_back(fleet.utilization(i, makespan));
  }
  const capacity::ResidencyTracker& residency = fleet.residency();

  ServiceMetrics& metrics = result.metrics;
  metrics = aggregate_metrics(result.completions, makespan, utilization);
  metrics.admission = replay.queue().stats();
  metrics.cache = cache_.stats() - cache_before;
  metrics.retries = replay.retries();
  metrics.dropped = replay.dropped();
  metrics.colocations = replay.colocations();
  metrics.interference_overhead_ns = static_cast<SimDuration>(
      std::max<std::int64_t>(0, replay.interference_delta_ns()));
  metrics.evictions = residency.stats().evictions;
  metrics.gc_bytes = residency.stats().gc_bytes;
  metrics.stage_hits = replay.stage_hits();
  metrics.residency_high_water = residency.residency_high_water();
  metrics.des_events = replay.des_events();
  metrics.allocator = allocator_counters() - counters_before;
  metrics.planner_window = std::max<std::uint32_t>(1, config_.planner.window);
  metrics.plans = replay.plans();
  return result;
}

}  // namespace pmemflow::service
