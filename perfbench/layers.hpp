// Per-layer probes: time each pmemflow layer from outside by calling its
// public functions on the workload's own inputs, one span per call (or
// per batch of calls, for operations too short to time singly).
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Runs every layer probe on the classes and backends of the first
/// stream, inside `recorder`, and returns the metrics
/// they measure: core.characterize_*, workflow.run_ms_p50.<config>,
/// devices.fingerprint_us, service.profile_hit_us,
/// workflow.class_fingerprint_us, sim.event_queue_ns_per_op and
/// service.earliest_free_us. Fails if a layer call fails.
[[nodiscard]] pmemflow::Expected<Metrics> probe_layers(const Setup& setup,
                                                       SpanRecorder& recorder);

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

}  // namespace perfbench
