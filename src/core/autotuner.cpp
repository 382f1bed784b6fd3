#include "core/autotuner.hpp"

#include "common/assert.hpp"

namespace pmemflow::core {

namespace {

/// Normalized runtime of `config` within `sweep`.
double regret_of(const ConfigSweep& sweep, const DeploymentConfig& config) {
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    if (sweep.results[i].config == config) {
      return sweep.normalized(i);
    }
  }
  PMEMFLOW_ASSERT_MSG(false, "recommended config missing from sweep");
  return 0.0;
}

}  // namespace

Expected<TuningReport> tune(const Executor& executor,
                            const workflow::WorkflowSpec& spec,
                            const Recommender& recommender) {
  auto sweep = executor.sweep(spec);
  if (!sweep.has_value()) return Unexpected{sweep.error()};

  TuningReport report;
  report.sweep = *std::move(sweep);
  // Table I order: S-LocW, S-LocR, P-LocW, P-LocR.
  report.profile = profile_from(
      spec, report.sweep.results[0], report.sweep.results[1],
      executor.runner().devices().primary().small_access_threshold());
  report.best = report.sweep.best().config;
  report.rule_based = recommender.rule_based(report.profile, spec);
  report.model_based = recommender.model_based(report.profile, spec);
  report.rule_based_regret =
      regret_of(report.sweep, report.rule_based.config);
  report.model_based_regret =
      regret_of(report.sweep, report.model_based.config);
  return report;
}

}  // namespace pmemflow::core
