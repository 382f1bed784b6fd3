// Workflow characterization (paper §IV).
//
// Measures, per component, the paper's *I/O index*: the fraction of an
// iteration spent in I/O when the component runs standalone — serially,
// with node-local PMEM access (§IV-C: "the ratio of I/O time /
// Iteration time when the application is executing standalone").
//
// Two of the Table I runs are exactly those standalone runs. In serial
// mode the writer phase is unaffected by the readers, so S-LocW's
// writer span is the standalone node-local writer runtime, and S-LocR's
// reader span is the standalone node-local reader runtime. Each span
// divided by the iteration count is the component's iteration time.
// The compute share of an iteration is known exactly from the component
// model, so the I/O time is the iteration time minus the model's
// compute time (§IV-A: each iteration is a compute phase plus an I/O
// phase).
//
// Also extracts the static features a scheduler can read off the launch
// configuration: object size class, concurrency class, per-iteration
// volumes.
#pragma once

#include "core/executor.hpp"

namespace pmemflow::core {

/// Qualitative level used by the paper's Table II.
enum class Level { kNil, kLow, kMedium, kHigh };

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Measured standalone profile of one component.
struct ComponentProfile {
  /// Standalone per-iteration wall time (node-local, serial), ns.
  double iteration_ns = 0.0;
  /// iteration_ns minus the model's compute time: pure I/O time, ns.
  double io_ns = 0.0;
  /// io_ns / iteration_ns (the paper's I/O index), in [0, 1].
  [[nodiscard]] double io_index() const noexcept {
    return iteration_ns > 0.0 ? io_ns / iteration_ns : 0.0;
  }

  Bytes object_size = 0;
  std::uint64_t objects_per_iteration = 0;
  Bytes bytes_per_iteration = 0;
};

/// Scheduler-facing features of a whole workflow (Table II columns).
struct WorkflowFeatures {
  Level sim_compute = Level::kNil;
  Level sim_write = Level::kNil;
  Level analytics_compute = Level::kNil;
  Level analytics_read = Level::kNil;
  /// true for sub-stripe ("small") object sizes.
  bool small_objects = false;
  /// low (<=8) / medium (<=16) / high concurrency.
  Level concurrency = Level::kLow;

  friend bool operator==(const WorkflowFeatures&,
                         const WorkflowFeatures&) = default;
};

/// Full characterization result.
struct WorkflowProfile {
  ComponentProfile simulation;
  ComponentProfile analytics;
  std::uint32_t ranks = 0;
  WorkflowFeatures features;
};

/// Derives the profile from the S-LocW and S-LocR results of `spec`
/// (asserted); `small_threshold` is the backend's small-access size.
[[nodiscard]] WorkflowProfile profile_from(const workflow::WorkflowSpec& spec,
                                           const ConfigResult& serial_locw,
                                           const ConfigResult& serial_locr,
                                           Bytes small_threshold);

/// Runs S-LocW and S-LocR on `executor` and derives the profile. Callers
/// that also sweep should use tune() (autotuner.hpp), which reuses the
/// sweep's two serial runs.
[[nodiscard]] Expected<WorkflowProfile> characterize(
    const Executor& executor, const workflow::WorkflowSpec& spec);

/// Feature discretization of two component profiles.
[[nodiscard]] WorkflowFeatures derive_features(
    const ComponentProfile& simulation, const ComponentProfile& analytics,
    std::uint32_t ranks, Bytes small_threshold);

}  // namespace pmemflow::core
