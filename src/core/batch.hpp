// Batch workflow scheduling — the paper's future work, §X: "explore
// how these recommendations can be practically incorporated in
// scheduling systems".
//
// A BatchScheduler receives a queue of workflows destined for one
// PMEM node (each in situ pair occupies both sockets, so workflows run
// back-to-back) and must pick a Table I configuration for every
// workflow. Policies:
//
//   kFixedSLocW / kFixedPLocR — a static configuration for everything
//     (what a scheduler unaware of PMEM trade-offs would do);
//   kRuleBased  — characterize each workflow, apply Table II;
//   kModelBased — characterize, then pick the analytic-estimate argmin;
//   kOracle     — exhaustively simulate all four configs per workflow
//     (upper bound on any recommendation strategy).
//
// The figure of merit is batch makespan. Characterization/estimation
// cost is not charged to the makespan: in practice it is a one-off,
// reusable profiling run per workflow class, exactly as the paper's
// I/O indexes are obtained (§IV-C).
#pragma once

#include <span>
#include <vector>

#include "core/autotuner.hpp"

namespace pmemflow::core {

enum class BatchPolicy {
  kFixedSLocW,
  kFixedPLocR,
  kRuleBased,
  kModelBased,
  kOracle,
};

[[nodiscard]] const char* to_string(BatchPolicy policy) noexcept;

/// One scheduled workflow within a batch.
struct ScheduledItem {
  std::string label;
  DeploymentConfig config;
  SimDuration start_ns = 0;
  SimDuration runtime_ns = 0;

  [[nodiscard]] SimDuration finish_ns() const noexcept {
    return start_ns + runtime_ns;
  }
};

/// Outcome of scheduling one batch under one policy.
struct BatchResult {
  BatchPolicy policy = BatchPolicy::kFixedSLocW;
  std::vector<ScheduledItem> items;
  SimDuration makespan_ns = 0;
};

class BatchScheduler {
 public:
  explicit BatchScheduler(Executor executor = Executor(),
                          Recommender recommender = Recommender())
      : executor_(std::move(executor)), recommender_(recommender) {}

  /// Schedules the batch under `policy` and simulates it; workflows run
  /// in queue order, back-to-back.
  [[nodiscard]] Expected<BatchResult> schedule(
      std::span<const workflow::WorkflowSpec> batch,
      BatchPolicy policy) const;

  /// Convenience: run every policy on the same batch (for comparisons).
  [[nodiscard]] Expected<std::vector<BatchResult>> compare(
      std::span<const workflow::WorkflowSpec> batch) const;

  [[nodiscard]] const Executor& executor() const noexcept {
    return executor_;
  }

 private:
  /// Picks `spec`'s configuration under `policy` and returns its run.
  /// A run the pick already made (the oracle's sweep, the recommenders'
  /// two serial characterization runs) is reused, never repeated.
  [[nodiscard]] Expected<ConfigResult> pick_config(
      const workflow::WorkflowSpec& spec, BatchPolicy policy) const;

  Executor executor_;
  Recommender recommender_;
};

}  // namespace pmemflow::core
