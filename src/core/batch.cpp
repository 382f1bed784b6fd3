#include "core/batch.hpp"

namespace pmemflow::core {

const char* to_string(BatchPolicy policy) noexcept {
  switch (policy) {
    case BatchPolicy::kFixedSLocW: return "fixed-S-LocW";
    case BatchPolicy::kFixedPLocR: return "fixed-P-LocR";
    case BatchPolicy::kRuleBased: return "rule-based";
    case BatchPolicy::kModelBased: return "model-based";
    case BatchPolicy::kOracle: return "oracle";
  }
  return "?";
}

Expected<ConfigResult> BatchScheduler::pick_config(
    const workflow::WorkflowSpec& spec, BatchPolicy policy) const {
  switch (policy) {
    case BatchPolicy::kFixedSLocW:
      return executor_.execute(
          spec, {ExecutionMode::kSerial, Placement::kLocalWrite});
    case BatchPolicy::kFixedPLocR:
      return executor_.execute(
          spec, {ExecutionMode::kParallel, Placement::kLocalRead});
    case BatchPolicy::kRuleBased:
    case BatchPolicy::kModelBased: {
      // characterize(), unrolled so a serial pick reuses its run.
      auto serial_locw = executor_.execute(
          spec, {ExecutionMode::kSerial, Placement::kLocalWrite});
      if (!serial_locw.has_value()) return Unexpected{serial_locw.error()};
      auto serial_locr = executor_.execute(
          spec, {ExecutionMode::kSerial, Placement::kLocalRead});
      if (!serial_locr.has_value()) return Unexpected{serial_locr.error()};
      const WorkflowProfile profile = profile_from(
          spec, *serial_locw, *serial_locr,
          executor_.runner().devices().primary().small_access_threshold());
      const DeploymentConfig config =
          policy == BatchPolicy::kRuleBased
              ? recommender_.rule_based(profile, spec).config
              : recommender_.model_based(profile, spec).config;
      if (config == serial_locw->config) return serial_locw;
      if (config == serial_locr->config) return serial_locr;
      return executor_.execute(spec, config);
    }
    case BatchPolicy::kOracle: {
      auto sweep = executor_.sweep(spec);
      if (!sweep.has_value()) return Unexpected{sweep.error()};
      return sweep->best();
    }
  }
  return make_error("unknown batch policy");
}

Expected<BatchResult> BatchScheduler::schedule(
    std::span<const workflow::WorkflowSpec> batch,
    BatchPolicy policy) const {
  BatchResult result;
  result.policy = policy;
  SimTime clock = 0;
  for (const auto& spec : batch) {
    auto run = pick_config(spec, policy);
    if (!run.has_value()) return Unexpected{run.error()};

    ScheduledItem item;
    item.label = spec.label;
    item.config = run->config;
    item.start_ns = clock;
    item.runtime_ns = run->run.total_ns;
    clock += item.runtime_ns;
    result.items.push_back(std::move(item));
  }
  result.makespan_ns = clock;
  return result;
}

Expected<std::vector<BatchResult>> BatchScheduler::compare(
    std::span<const workflow::WorkflowSpec> batch) const {
  std::vector<BatchResult> results;
  for (const BatchPolicy policy :
       {BatchPolicy::kFixedSLocW, BatchPolicy::kFixedPLocR,
        BatchPolicy::kRuleBased, BatchPolicy::kModelBased,
        BatchPolicy::kOracle}) {
    auto result = schedule(batch, policy);
    if (!result.has_value()) return Unexpected{result.error()};
    results.push_back(*std::move(result));
  }
  return results;
}

}  // namespace pmemflow::core
