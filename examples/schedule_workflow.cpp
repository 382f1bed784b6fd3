// Scheduling a workflow the way the paper recommends (§VIII).
//
//   $ ./schedule_workflow
//
// Scenario: you are about to launch a coupled GTC + analysis run and
// must choose how the scheduler deploys it. This example walks the
// full decision pipeline the library provides:
//
//   1. characterize  — measure each component's I/O index standalone
//   2. recommend     — Table II rules and the model-based estimator
//   3. validate      — exhaustively simulate all four configurations
//                      and report the recommenders' regret
//
// One core::tune call does all three: the sweep of step 3 includes the
// serial node-local runs that step 1 reads its I/O indexes from.
#include <cstdio>

#include "core/autotuner.hpp"
#include "workloads/suite.hpp"

int main() {
  using namespace pmemflow;

  const auto spec = workloads::make_workflow(
      workloads::Family::kGtcMatrixMult, /*ranks=*/16);
  std::printf("scheduling decision for %s\n\n", spec.label.c_str());

  const core::Executor executor;
  auto report = core::tune(executor, spec);
  if (!report.has_value()) {
    std::fprintf(stderr, "tuning failed: %s\n",
                 report.error().message.c_str());
    return 1;
  }

  // Step 1: characterization.
  const core::WorkflowProfile& profile = report->profile;
  std::printf("characterization (standalone, node-local, serial):\n");
  std::printf("  simulation: %.3f s/iteration, I/O index %.2f\n",
              profile.simulation.iteration_ns / 1e9,
              profile.simulation.io_index());
  std::printf("  analytics:  %.3f s/iteration, I/O index %.2f\n",
              profile.analytics.iteration_ns / 1e9,
              profile.analytics.io_index());
  std::printf("  features: sim compute %s / write %s, analytics compute "
              "%s / read %s, %s objects, %s concurrency\n\n",
              core::to_string(profile.features.sim_compute),
              core::to_string(profile.features.sim_write),
              core::to_string(profile.features.analytics_compute),
              core::to_string(profile.features.analytics_read),
              profile.features.small_objects ? "small" : "large",
              core::to_string(profile.features.concurrency));

  // Step 2: recommendations.
  const core::Recommendation& rule = report->rule_based;
  const core::Recommendation& model = report->model_based;
  std::printf("rule-based (Table II%s): %s\n",
              rule.table2_row > 0 ? " row matched" : ", fallback",
              rule.config.label().c_str());
  std::printf("model-based estimates:\n");
  const auto configs = core::all_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::printf("  %s: %.3f s predicted%s\n",
                configs[i].label().c_str(), model.predicted_ns[i] / 1e9,
                configs[i] == model.config ? "  <- chosen" : "");
  }
  std::printf("\n");

  // Step 3: validation against the exhaustive sweep.
  std::printf("exhaustive sweep (ground truth):\n");
  for (std::size_t i = 0; i < report->sweep.results.size(); ++i) {
    const auto& result = report->sweep.results[i];
    std::printf("  %s: %.3f s (%.2fx)%s\n", result.config.label().c_str(),
                static_cast<double>(result.run.total_ns) / 1e9,
                report->sweep.normalized(i),
                result.config == report->best ? "  <- best" : "");
  }
  std::printf("\nrecommender regret: rule-based %.2fx, model-based %.2fx\n",
              report->rule_based_regret, report->model_based_regret);
  return 0;
}
