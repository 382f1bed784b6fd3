// Scheduling recommendation engine (paper §VIII + Table II).
//
// Two strategies, both consuming a WorkflowProfile (characterizer.hpp):
//
//   rule_based  — the paper's Table II encoded as an ordered rule list
//                 over qualitative features (compute/IO levels, object
//                 size class, concurrency class). Feature combinations
//                 the table does not cover — and rows the table itself
//                 leaves ambiguous — fall back to the model-based
//                 estimate (the §VIII decision procedure distilled).
//
//   model_based — a closed-form steady-state estimate of each of the
//                 four configurations, reusing the *same* bandwidth
//                 allocator the simulator runs on: per configuration it
//                 builds the rank flow set, solves the fixed point
//                 once, and derives iteration times; argmin wins. This
//                 is the "future workflow scheduler" the paper's
//                 conclusions call for: its cost is four allocator
//                 solves, no simulation.
#pragma once

#include <array>

#include "core/characterizer.hpp"
#include "interconnect/upi.hpp"
#include "pmemsim/params.hpp"

namespace pmemflow::core {

struct Recommendation {
  DeploymentConfig config;
  /// Predicted runtimes (ns) per configuration, Table I order; only
  /// filled by the model-based path (and rule-based fallbacks).
  std::array<double, 4> predicted_ns{};
  /// Matched Table II row (1-10); 0 when the model-based path decided.
  int table2_row = 0;
};

class Recommender {
 public:
  explicit Recommender(pmemsim::OptaneParams optane = {},
                       interconnect::UpiParams upi = {})
      : optane_(optane), upi_(upi) {}

  /// Table II row matching with model-based fallback/tiebreak.
  [[nodiscard]] Recommendation rule_based(
      const WorkflowProfile& profile,
      const workflow::WorkflowSpec& spec) const;

  /// Analytic per-configuration estimate; picks the minimum.
  [[nodiscard]] Recommendation model_based(
      const WorkflowProfile& profile,
      const workflow::WorkflowSpec& spec) const;

  /// Steady-state runtime estimate of one configuration (exposed for
  /// tests and the Table II bench).
  [[nodiscard]] double estimate_ns(const WorkflowProfile& profile,
                                   const workflow::WorkflowSpec& spec,
                                   const DeploymentConfig& config) const;

 private:
  pmemsim::OptaneParams optane_;
  interconnect::UpiParams upi_;
};

}  // namespace pmemflow::core
