// The benchmark's workloads: seeded synthetic submission streams and the
// unsharded, single-threaded service configuration each one replays
// through service::OnlineScheduler::run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "service/scheduler.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::uint32_t nodes = 0;
  std::uint32_t classes = 0;
  double mean_gap_ms = 0.0;
  std::size_t queue_capacity = 0;
  /// Registry presets assigned round-robin across nodes; one entry means
  /// a homogeneous fleet on the scheduler's default backend.
  std::vector<std::string> backends;
  /// Submissions per stream.
  std::uint64_t submissions = 0;
  /// Independent streams per seed. Each replay runs one of them; the
  /// scheduling-quality metrics are medians over all of them, so they
  /// vary little from one seed to the next.
  std::size_t streams = 0;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// Everything the replays need: the streams and the scheduler inputs.
struct Setup {
  /// Workload::streams streams, each drawn from its own seed derived
  /// from the run's seed.
  std::vector<std::vector<pmemflow::service::Submission>> streams;
  pmemflow::service::ServiceConfig config;
  pmemflow::core::Executor executor;
  /// Distinct memory backends of the fleet, in first-node order.
  std::vector<pmemflow::devices::NodeDevices> backends;
};

/// Generates the streams from `seed` and resolves the fleet's backends.
[[nodiscard]] pmemflow::Expected<Setup> make_setup(const Workload& workload,
                                                   std::uint64_t seed);

/// A fresh scheduler with cold caches.
[[nodiscard]] std::unique_ptr<pmemflow::service::OnlineScheduler>
make_scheduler(const Setup& setup);

/// FNV-1a over id/node/slot/config/start/finish of every completion, in
/// completion order: two replays that place or time anything
/// differently disagree here.
[[nodiscard]] std::uint64_t schedule_fingerprint(
    const std::vector<pmemflow::service::CompletionRecord>& records);

/// FNV-1a over id/arrival/priority/class of every submission.
[[nodiscard]] std::uint64_t stream_fingerprint(
    const std::vector<pmemflow::service::Submission>& stream);

/// One workflow spec per distinct class in the stream, first-arrival
/// order.
[[nodiscard]] std::vector<pmemflow::workflow::WorkflowSpec> distinct_classes(
    const std::vector<pmemflow::service::Submission>& stream);

}  // namespace perfbench
