#include "core/characterizer.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pmemflow::core {

namespace {

constexpr DeploymentConfig kSerialLocW{ExecutionMode::kSerial,
                                       Placement::kLocalWrite};
constexpr DeploymentConfig kSerialLocR{ExecutionMode::kSerial,
                                       Placement::kLocalRead};

Level classify_fraction(double fraction) {
  if (fraction < 0.02) return Level::kNil;
  if (fraction < 0.35) return Level::kLow;
  if (fraction < 0.65) return Level::kMedium;
  return Level::kHigh;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kNil: return "Nil";
    case Level::kLow: return "low";
    case Level::kMedium: return "medium";
    case Level::kHigh: return "high";
  }
  return "?";
}

WorkflowFeatures derive_features(const ComponentProfile& simulation,
                                 const ComponentProfile& analytics,
                                 std::uint32_t ranks, Bytes small_threshold) {
  WorkflowFeatures features;
  features.sim_compute = classify_fraction(1.0 - simulation.io_index());
  features.sim_write = classify_fraction(simulation.io_index());
  features.analytics_compute =
      classify_fraction(1.0 - analytics.io_index());
  features.analytics_read = classify_fraction(analytics.io_index());
  features.small_objects = simulation.object_size <= small_threshold;
  features.concurrency = (ranks <= 8)    ? Level::kLow
                         : (ranks <= 16) ? Level::kMedium
                                         : Level::kHigh;
  return features;
}

WorkflowProfile profile_from(const workflow::WorkflowSpec& spec,
                             const ConfigResult& serial_locw,
                             const ConfigResult& serial_locr,
                             Bytes small_threshold) {
  PMEMFLOW_ASSERT(serial_locw.config == kSerialLocW);
  PMEMFLOW_ASSERT(serial_locr.config == kSerialLocR);

  const double iters = static_cast<double>(spec.iterations);
  const stack::SnapshotPart part =
      spec.simulation->part_for(0, spec.ranks, 1);

  WorkflowProfile profile;
  profile.ranks = spec.ranks;
  profile.simulation.iteration_ns =
      static_cast<double>(serial_locw.run.writer_span_ns) / iters;
  const double sim_compute =
      spec.simulation->compute_ns_per_iteration(0, spec.ranks);
  profile.simulation.io_ns =
      std::max(0.0, profile.simulation.iteration_ns - sim_compute);

  profile.analytics.iteration_ns =
      static_cast<double>(serial_locr.run.reader_span_ns()) / iters;
  const double ana_compute =
      spec.analytics->compute_ns_per_object(stack::part_op_size(part)) *
      static_cast<double>(stack::part_object_count(part));
  profile.analytics.io_ns =
      std::max(0.0, profile.analytics.iteration_ns - ana_compute);
  profile.simulation.object_size = stack::part_op_size(part);
  profile.simulation.objects_per_iteration = stack::part_object_count(part);
  profile.simulation.bytes_per_iteration = stack::part_bytes(part);
  profile.analytics.object_size = profile.simulation.object_size;
  profile.analytics.objects_per_iteration =
      profile.simulation.objects_per_iteration;
  profile.analytics.bytes_per_iteration =
      profile.simulation.bytes_per_iteration;

  profile.features = derive_features(profile.simulation, profile.analytics,
                                     spec.ranks, small_threshold);
  return profile;
}

Expected<WorkflowProfile> characterize(const Executor& executor,
                                       const workflow::WorkflowSpec& spec) {
  auto serial_locw = executor.execute(spec, kSerialLocW);
  if (!serial_locw.has_value()) return Unexpected{serial_locw.error()};
  auto serial_locr = executor.execute(spec, kSerialLocR);
  if (!serial_locr.has_value()) return Unexpected{serial_locr.error()};
  return profile_from(
      spec, *serial_locw, *serial_locr,
      executor.runner().devices().primary().small_access_threshold());
}

}  // namespace pmemflow::core
