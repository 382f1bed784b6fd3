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

Expected<DeploymentConfig> BatchScheduler::pick_config(
    const workflow::WorkflowSpec& spec, BatchPolicy policy) const {
  switch (policy) {
    case BatchPolicy::kFixedSLocW:
      return DeploymentConfig{ExecutionMode::kSerial,
                              Placement::kLocalWrite};
    case BatchPolicy::kFixedPLocR:
      return DeploymentConfig{ExecutionMode::kParallel,
                              Placement::kLocalRead};
    case BatchPolicy::kRuleBased:
    case BatchPolicy::kModelBased: {
      auto profile = characterize(executor_, spec);
      if (!profile.has_value()) return Unexpected{profile.error()};
      return policy == BatchPolicy::kRuleBased
                 ? recommender_.rule_based(*profile, spec).config
                 : recommender_.model_based(*profile, spec).config;
    }
    case BatchPolicy::kOracle: {
      auto sweep = executor_.sweep(spec);
      if (!sweep.has_value()) return Unexpected{sweep.error()};
      return sweep->best().config;
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
    auto config = pick_config(spec, policy);
    if (!config.has_value()) return Unexpected{config.error()};
    auto run = executor_.execute(spec, *config);
    if (!run.has_value()) return Unexpected{run.error()};

    ScheduledItem item;
    item.label = spec.label;
    item.config = *config;
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
