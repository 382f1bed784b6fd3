// Auto-tuner: exhaustive configuration search plus recommender audit.
//
// Because deployments are simulated, trying all four Table I
// configurations is cheap; tune() does exactly that and reports the
// empirical best alongside what the rule-based and model-based
// recommenders *would* have chosen — including each strategy's regret
// (recommended runtime / best runtime). This is the validation loop the
// paper's conclusions ask future schedulers to close. The profile the
// recommenders read comes from the sweep's own S-LocW and S-LocR runs,
// so a tuning costs exactly four workflow runs.
#pragma once

#include "core/recommender.hpp"

namespace pmemflow::core {

struct TuningReport {
  ConfigSweep sweep;
  WorkflowProfile profile;
  DeploymentConfig best;
  Recommendation rule_based;
  Recommendation model_based;

  /// runtime(recommended) / runtime(best); 1.0 = recommender optimal.
  double rule_based_regret = 1.0;
  double model_based_regret = 1.0;
};

/// Sweeps `spec` on `executor`, derives its profile from the sweep and
/// audits both recommenders against the empirical best.
[[nodiscard]] Expected<TuningReport> tune(
    const Executor& executor, const workflow::WorkflowSpec& spec,
    const Recommender& recommender = Recommender());

}  // namespace pmemflow::core
