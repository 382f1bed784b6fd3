#include "workloads.hpp"

#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "service/arrivals.hpp"

namespace perfbench {

using namespace pmemflow;

namespace {

/// Seed of every workload's workflow-class pool (pmemflowd's default
/// --seed). The pool is part of a workload's shape: it sets the fleet's
/// utilisation, so it stays fixed while --seed draws the arrival times,
/// priorities and the class of each submission.
constexpr std::uint64_t kPoolSeed = 42;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& hash, std::uint64_t value) {
  hash ^= value;
  hash *= kFnvPrime;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  // Stream sizes are set so that one replay takes a fraction of a second
  // on a desktop-class core: a run then holds enough replays for a tail
  // percentile of replay throughput.
  static const std::vector<Workload> workloads = {
      // Unsaturated homogeneous fleet: the service loop does the work.
      {"steady", 16, 24, 130.0, 256, {"optane-gen1"}, 30000, 20},
      // pmemflowd's default shape: a saturated retry storm.
      {"storm", 4, 24, 50.0, 64, {"optane-gen1"}, 40000, 10},
      // Mixed-backend fleet, cold profile cache: characterization and the
      // backend-keyed profile lookups do the work. A cold replay pays for
      // every (class, backend) profile whatever its length, so streams
      // are short and many. At 60 ms the fleet is overloaded and its
      // queue stays full, so a short stream's queue delay repeats from
      // seed to seed; in a fleet with idle periods it is set by a few
      // rare bursts.
      {"hetero_cold",
       16,
       32,
       60.0,
       256,
       {"optane-gen1", "dram-like", "cxl-like", "optane-gen2"},
       1000,
       40},
  };
  return workloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : all_workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Expected<Setup> make_setup(const Workload& workload, std::uint64_t seed) {
  const auto pool = service::make_class_pool(workload.classes, kPoolSeed);
  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    index_of.emplace(pool[i].label, i);
  }

  Setup setup;
  for (std::size_t k = 0; k < workload.streams; ++k) {
    service::ArrivalParams arrivals;
    arrivals.count = workload.submissions;
    arrivals.classes = workload.classes;
    arrivals.mean_interarrival_ns = workload.mean_gap_ms * 1e6;
    arrivals.seed = derive_seed(seed, k);
    auto stream = service::make_submission_stream(arrivals);
    if (!stream.has_value()) return Unexpected{stream.error()};
    // Swap each submission's class for the same-index class of the
    // fixed pool (pool labels name the index).
    for (service::Submission& submission : *stream) {
      submission.spec = pool[index_of.at(submission.spec.label)];
    }
    setup.streams.push_back(std::move(*stream));
  }

  setup.config.nodes = workload.nodes;
  setup.config.queue_capacity = workload.queue_capacity;
  setup.config.policy = service::PlacementPolicy::kRecommenderAware;
  setup.config.sharding.regions = 1;
  setup.config.sharding.threads = 1;

  std::unordered_set<std::uint64_t> seen;
  for (std::uint32_t node = 0; node < workload.nodes; ++node) {
    const std::string& name = workload.backends[node % workload.backends.size()];
    auto devices = devices::parse_backend(name);
    if (!devices.has_value()) return Unexpected{devices.error()};
    if (seen.insert(devices->fingerprint()).second) {
      setup.backends.push_back(*devices);
    }
    if (workload.backends.size() > 1) {
      setup.config.node_specs.push_back(service::NodeSpec{name, *devices});
    }
  }
  setup.executor =
      core::Executor{workflow::Runner(topo::PlatformSpec{}, setup.backends[0])};
  return setup;
}

std::unique_ptr<service::OnlineScheduler> make_scheduler(const Setup& setup) {
  return std::make_unique<service::OnlineScheduler>(setup.config,
                                                    setup.executor);
}

std::uint64_t schedule_fingerprint(
    const std::vector<service::CompletionRecord>& records) {
  std::uint64_t hash = kFnvOffset;
  for (const service::CompletionRecord& record : records) {
    mix(hash, record.id);
    mix(hash, record.node);
    mix(hash, record.slot);
    mix(hash, static_cast<std::uint64_t>(record.config.mode));
    mix(hash, static_cast<std::uint64_t>(record.config.placement));
    mix(hash, record.start_ns);
    mix(hash, record.finish_ns);
  }
  return hash;
}

std::uint64_t stream_fingerprint(
    const std::vector<service::Submission>& stream) {
  std::uint64_t hash = kFnvOffset;
  for (const service::Submission& submission : stream) {
    mix(hash, submission.id);
    mix(hash, submission.arrival_ns);
    mix(hash, static_cast<std::uint64_t>(submission.priority));
    mix(hash, workflow::class_fingerprint(submission.spec));
  }
  return hash;
}

std::vector<workflow::WorkflowSpec> distinct_classes(
    const std::vector<service::Submission>& stream) {
  std::vector<workflow::WorkflowSpec> classes;
  std::unordered_set<std::uint64_t> seen;
  for (const service::Submission& submission : stream) {
    if (seen.insert(workflow::class_fingerprint(submission.spec)).second) {
      classes.push_back(submission.spec);
    }
  }
  return classes;
}

}  // namespace perfbench
