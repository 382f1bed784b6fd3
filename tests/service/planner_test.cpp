#include "service/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

// The golden scenarios and fingerprint below were captured by running
// this exact block against the pre-planner commit (the last one with
// the per-policy choosers inside the scheduler); the pins in
// kGoldenPins are that run's output. Keep the block byte-stable:
// re-recording pins is only legitimate for a deliberate, documented
// schedule change.

/// Schedule fingerprint: every placement-visible field of every
/// completion record, in completion order, plus the drop count.
/// cache_hit and allocator counters are deliberately excluded — they
/// describe planner-internal traffic, not the schedule.
std::uint64_t schedule_fingerprint(const ServiceResult& result) {
  Hasher64 hasher;
  hasher.update_u64(result.completions.size());
  hasher.update_u64(result.metrics.dropped);
  for (const auto& r : result.completions) {
    hasher.update_u64(r.id);
    hasher.update_u64(r.node);
    hasher.update_u64(r.slot);
    hasher.update_u64(static_cast<std::uint64_t>(r.config.mode));
    hasher.update_u64(static_cast<std::uint64_t>(r.config.placement));
    hasher.update_u64(r.start_ns);
    hasher.update_u64(r.finish_ns);
    hasher.update_u64(r.preemptions);
    hasher.update_u64(r.migrations);
    hasher.update_u64(r.colocations);
    hasher.update_u64(r.ephemeral_edges);
    hasher.update_bool(r.dag);
  }
  return hasher.digest();
}

ArrivalParams golden_stream_params() {
  ArrivalParams params;
  params.count = 160;
  params.classes = 10;
  params.mean_interarrival_ns = 6.0e6;
  params.seed = 0x5EED10;
  params.urgent_fraction = 0.15;
  params.batch_fraction = 0.30;
  return params;
}

ServiceConfig golden_config(PlacementPolicy policy) {
  ServiceConfig config;
  config.nodes = 5;
  config.queue_capacity = 256;
  config.defer_watermark = 1.0;
  config.policy = policy;
  return config;
}

std::vector<NodeSpec> golden_hetero_specs(std::uint32_t nodes) {
  const char* presets[] = {"optane-gen1", "dram-like", "cxl-like"};
  std::vector<NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    NodeSpec spec;
    spec.backend_name = presets[i % 3];
    spec.devices = *devices::parse_backend(spec.backend_name);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::shared_ptr<const dag::DagSpec> golden_chain_dag() {
  dag::DagSpec spec;
  spec.label = "golden-chain";
  spec.iterations = 2;
  dag::DagComponent writer;
  writer.name = "writer";
  writer.ranks = 4;
  writer.object_size = 1 * kMiB;
  writer.objects_per_rank = 4;
  writer.compute_ns = 1e7;
  dag::DagComponent reader;
  reader.name = "reader";
  reader.ranks = 4;
  reader.analytics_ns_per_object = 500.0;
  spec.components = {writer, reader};
  spec.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  return std::make_shared<const dag::DagSpec>(std::move(spec));
}

/// Burst-then-lull stream: the first 30 submissions arrive 5 ms apart
/// (saturating the fleet), the rest 8 s apart (the fleet fully drains
/// between arrivals, so several idle nodes with uneven accumulated
/// busy time are visible to every placement — the regime where
/// first-fit and least-loaded genuinely differ).
Expected<std::vector<Submission>> golden_two_phase_stream() {
  ArrivalParams params = golden_stream_params();
  params.count = 50;
  auto stream = make_submission_stream(params);
  if (!stream.has_value()) return stream;
  for (std::size_t i = 0; i < stream->size(); ++i) {
    if (i < 30) {
      (*stream)[i].arrival_ns = static_cast<SimTime>(i) * 5 * kMillisecond;
    } else {
      (*stream)[i].arrival_ns = 30 * 5 * kMillisecond +
                                static_cast<SimTime>(i - 29) * 8 * kSecond;
    }
  }
  return stream;
}

/// The pre-refactor greedy scenarios the planner must reproduce at
/// window 1: all placement policies, plus the heterogeneous-routing,
/// preemption, and bounded-capacity variants of the paths that branch
/// on fleet state.
struct GoldenScenario {
  const char* name;
  ServiceConfig config;
  ArrivalParams params;
  bool dag_stream = false;
  bool two_phase = false;
};

std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> scenarios;
  scenarios.push_back(
      {"first-fit", golden_config(PlacementPolicy::kFirstFit),
       golden_stream_params()});
  scenarios.push_back(
      {"least-loaded", golden_config(PlacementPolicy::kLeastLoaded),
       golden_stream_params()});
  for (PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded}) {
    GoldenScenario lull{policy == PlacementPolicy::kFirstFit
                            ? "first-fit-lull"
                            : "least-loaded-lull",
                        golden_config(policy), golden_stream_params()};
    lull.two_phase = true;
    scenarios.push_back(std::move(lull));
  }
  {
    GoldenScenario tight{"least-loaded-tight-queue",
                         golden_config(PlacementPolicy::kLeastLoaded),
                         golden_stream_params()};
    tight.config.queue_capacity = 12;
    tight.config.defer_watermark = 0.5;
    scenarios.push_back(std::move(tight));
  }
  scenarios.push_back(
      {"recommender", golden_config(PlacementPolicy::kRecommenderAware),
       golden_stream_params()});
  {
    GoldenScenario hetero{"recommender-hetero",
                          golden_config(PlacementPolicy::kRecommenderAware),
                          golden_stream_params()};
    hetero.config.node_specs = golden_hetero_specs(hetero.config.nodes);
    scenarios.push_back(std::move(hetero));
  }
  scenarios.push_back(
      {"colocation", golden_config(PlacementPolicy::kColocationAware),
       golden_stream_params()});
  {
    GoldenScenario capacity{"capacity",
                            golden_config(PlacementPolicy::kCapacityAware),
                            golden_stream_params()};
    capacity.config.capacity.pmem_per_socket = static_cast<Bytes>(6e9);
    capacity.config.capacity.retention.retain_versions = 2;
    scenarios.push_back(std::move(capacity));
  }
  {
    GoldenScenario preempt{"preemption",
                           golden_config(PlacementPolicy::kRecommenderAware),
                           golden_stream_params()};
    preempt.config.preemption = PreemptionPolicy::kCheckpointRestore;
    preempt.params.urgent_fraction = 0.25;
    scenarios.push_back(std::move(preempt));
  }
  {
    GoldenScenario fusion{"dag-fusion",
                          golden_config(PlacementPolicy::kDagFusion),
                          golden_stream_params()};
    fusion.params.count = 48;
    fusion.dag_stream = true;
    scenarios.push_back(std::move(fusion));
  }
  return scenarios;
}

Expected<ServiceResult> run_golden(const GoldenScenario& scenario) {
  auto stream = scenario.two_phase ? golden_two_phase_stream()
                                   : make_submission_stream(scenario.params);
  if (!stream.has_value()) return Unexpected(stream.error());
  if (scenario.dag_stream) {
    const auto chain = golden_chain_dag();
    for (auto& submission : *stream) submission.dag = chain;
  }
  OnlineScheduler scheduler(scenario.config);
  return scheduler.run(*stream);
}

/// Pre-refactor schedule fingerprints, recorded from the legacy
/// per-policy chooser path (the commit that preceded the planner). The
/// window-1 planner must reproduce every one, byte for byte.
struct GoldenPin {
  const char* name;
  std::uint64_t fingerprint;
};

constexpr GoldenPin kGoldenPins[] = {
    {"first-fit", 0x7138c8b5c9cb5ae2ULL},
    {"least-loaded", 0x7138c8b5c9cb5ae2ULL},
    {"first-fit-lull", 0x2da41be0fbc9ea96ULL},
    {"least-loaded-lull", 0x60e612e778a486baULL},
    {"least-loaded-tight-queue", 0x264825f497c06393ULL},
    {"recommender", 0x3abbc4115577e8e4ULL},
    {"recommender-hetero", 0xab30bd71003ae3f9ULL},
    {"colocation", 0x845fed21d79593fdULL},
    {"capacity", 0xf4e38c638812f364ULL},
    {"preemption", 0x653b3c75d0242f5bULL},
    {"dag-fusion", 0x76f86f913a113574ULL},
};

std::uint64_t pin_for(const std::string& name) {
  for (const GoldenPin& pin : kGoldenPins) {
    if (name == pin.name) return pin.fingerprint;
  }
  ADD_FAILURE() << "no golden pin for scenario " << name;
  return 0;
}

std::vector<Submission> golden_stream(const GoldenScenario& scenario) {
  auto stream = scenario.two_phase ? golden_two_phase_stream()
                                   : make_submission_stream(scenario.params);
  EXPECT_TRUE(stream.has_value());
  if (scenario.dag_stream) {
    const auto chain = golden_chain_dag();
    for (auto& submission : *stream) submission.dag = chain;
  }
  return *stream;
}

GoldenScenario scenario_named(const std::string& name) {
  for (auto& scenario : golden_scenarios()) {
    if (name == scenario.name) return scenario;
  }
  ADD_FAILURE() << "no scenario named " << name;
  return GoldenScenario{"", ServiceConfig{}, ArrivalParams{}};
}

TEST(PlannerGolden, WindowOneIsByteIdenticalToPreRefactorGreedy) {
  for (const auto& scenario : golden_scenarios()) {
    auto result = run_golden(scenario);
    ASSERT_TRUE(result.has_value())
        << scenario.name << ": " << result.error().message;
    const std::uint64_t fingerprint = schedule_fingerprint(*result);
    EXPECT_EQ(fingerprint, pin_for(scenario.name))
        << scenario.name << ": planner window-1 schedule diverged from the "
        << "pre-refactor pin; actual fingerprint 0x" << std::hex
        << fingerprint;
  }
}

TEST(PlannerCache, SteadyStateTwinRunReplaysItsPlans) {
  // The same stream twice through one scheduler: the second run starts
  // with warm profile and interference caches, and the planner holds no
  // state across runs, so the warm rerun must reproduce the schedule.
  const GoldenScenario scenario = scenario_named("least-loaded");
  const auto stream = golden_stream(scenario);
  ServiceConfig config = scenario.config;
  config.planner.window = 4;
  OnlineScheduler scheduler(config);
  auto first = scheduler.run(stream);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  auto second = scheduler.run(stream);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_EQ(schedule_fingerprint(*first), schedule_fingerprint(*second));
  // Metrics are per-run: the rerun plans exactly as often as the first.
  EXPECT_EQ(first->metrics.plans, second->metrics.plans);
}

// Cross-feature pins. The golden block above fingerprints the schedule
// alone and runs one feature at a time. These scenarios combine the
// paths that share placement code (DAGs with capacity and staging,
// co-location with preemption, co-location and lookahead routing on a
// heterogeneous fleet) and also hash the planner's cache traffic: each
// record's cache_hit and the run's cache, co-location, interference,
// residency and staging counters. The pins were recorded before the
// service's placement lookups, DAG start, lease and pack check were
// folded into one function each; a moved pin means a changed schedule
// or changed cache traffic.

std::uint64_t traffic_fingerprint(const ServiceResult& result) {
  Hasher64 hasher;
  hasher.update_u64(schedule_fingerprint(result));
  for (const auto& r : result.completions) hasher.update_bool(r.cache_hit);
  const ServiceMetrics& m = result.metrics;
  hasher.update_u64(m.cache.hits);
  hasher.update_u64(m.cache.misses);
  hasher.update_u64(m.cache.evictions);
  hasher.update_u64(m.colocations);
  hasher.update_u64(m.interference_overhead_ns);
  hasher.update_u64(m.evictions);
  hasher.update_u64(m.gc_bytes);
  hasher.update_u64(m.stage_hits);
  hasher.update_u64(m.residency_high_water);
  return hasher.digest();
}

/// One simulation feeding two analytics consumers (the fan-out shape of
/// examples/dags/fanout_analytics.dag, scaled down): dag-fusion makes
/// one of its edges ephemeral.
std::shared_ptr<const dag::DagSpec> fanout_dag() {
  auto spec = dag::parse(
      "# pmemflow-dag v1\n"
      "dag label=fanout iterations=4 verify_reads=1\n"
      "component name=sim ranks=8 object_size=4194304 objects_per_rank=8 "
      "compute_ns=25000000 analytics_ns_per_object=0 seed=1\n"
      "component name=stats ranks=8 object_size=1048576 objects_per_rank=4 "
      "compute_ns=0 analytics_ns_per_object=40000 seed=1\n"
      "component name=viz ranks=8 object_size=1048576 objects_per_rank=4 "
      "compute_ns=0 analytics_ns_per_object=25000 seed=1\n"
      "edge producer=sim consumer=stats stack=nvstream capacity=4\n"
      "edge producer=sim consumer=viz stack=nvstream capacity=4\n");
  EXPECT_TRUE(spec.has_value()) << spec.error().message;
  return std::make_shared<const dag::DagSpec>(std::move(*spec));
}

/// The golden stream with every third submission turned into a DAG,
/// alternating the fan-out and the chain.
std::vector<Submission> mixed_dag_stream() {
  auto stream = make_submission_stream(golden_stream_params());
  EXPECT_TRUE(stream.has_value());
  const std::shared_ptr<const dag::DagSpec> dags[] = {fanout_dag(),
                                                      golden_chain_dag()};
  for (std::size_t i = 0; i < stream->size(); i += 3) {
    (*stream)[i].dag = dags[(i / 3) % 2];
    (*stream)[i].spec = workflow::WorkflowSpec{};
  }
  return *stream;
}

/// The write-heavy / read-heavy straddle classes of colocation_test.cpp:
/// opposite I/O orientations, so they may pack.
workflow::WorkflowSpec straddle_class(bool write_heavy) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = write_heavy ? 0.0 : 2.5e7;
  sim.name = write_heavy ? "wh-sim" : "rh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = write_heavy ? 1.0e6 : 0.0;
  analytics.name = write_heavy ? "wh-ana" : "rh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/2);
  spec.label = write_heavy ? "write-heavy" : "read-heavy";
  return spec;
}

/// Alternating straddle classes `gap_ns` apart; every `urgent_every`-th
/// submission is urgent and the rest are batch (0 = all normal).
std::vector<Submission> straddle_stream(std::uint64_t count, SimDuration gap_ns,
                                        std::uint64_t urgent_every) {
  std::vector<Submission> stream;
  for (std::uint64_t i = 0; i < count; ++i) {
    Submission submission;
    submission.id = i;
    submission.spec = straddle_class(i % 2 == 0);
    submission.arrival_ns = static_cast<SimTime>(i) * gap_ns;
    if (urgent_every != 0) {
      submission.priority = i % urgent_every == urgent_every - 1
                                ? Priority::kUrgent
                                : Priority::kBatch;
    }
    stream.push_back(std::move(submission));
  }
  return stream;
}

struct CrossScenario {
  const char* name;
  ServiceConfig config;
  std::vector<Submission> stream;
  std::uint64_t pin;
  // Paths the scenario exists to exercise; each must be reached.
  bool dags = false;
  bool stages = false;
  bool evicts = false;
  bool packs = false;
  bool preempts = false;
};

std::vector<CrossScenario> cross_scenarios() {
  std::vector<CrossScenario> scenarios;
  {
    CrossScenario s{"dag-fusion-capacity-staging",
                    golden_config(PlacementPolicy::kDagFusion),
                    mixed_dag_stream(),
                    0x0e5bc27cea6e7987ULL};
    s.config.capacity.pmem_per_socket = static_cast<Bytes>(4e9);
    s.config.capacity.staging.stage_bytes = static_cast<Bytes>(1e9);
    s.config.capacity.retention.retain_versions = 2;
    s.dags = s.stages = s.evicts = true;
    scenarios.push_back(std::move(s));
  }
  {
    CrossScenario s{"spread-dag-capacity",
                    golden_config(PlacementPolicy::kLeastLoaded),
                    mixed_dag_stream(),
                    0xe5c3a3b41405a11dULL};
    s.config.capacity.pmem_per_socket = static_cast<Bytes>(4e9);
    // Without GC every version stays resident until the channel ends.
    s.config.capacity.retention.retain_versions = 2;
    s.config.capacity.retention.gc = false;
    s.dags = s.evicts = true;
    scenarios.push_back(std::move(s));
  }
  {
    CrossScenario s{"capacity-aware-staging",
                    golden_config(PlacementPolicy::kCapacityAware),
                    golden_stream(scenario_named("capacity")),
                    0x70a9ef3f5c35eb4cULL};
    s.config.capacity.pmem_per_socket = static_cast<Bytes>(6e9);
    s.config.capacity.staging.stage_bytes = static_cast<Bytes>(1e9);
    s.config.capacity.retention.retain_versions = 2;
    s.stages = s.evicts = true;
    scenarios.push_back(std::move(s));
  }
  {
    CrossScenario s{"colocation-preemption",
                    golden_config(PlacementPolicy::kColocationAware),
                    straddle_stream(60, 20 * kMillisecond, 5),
                    0x04e028591b3be303ULL};
    s.config.nodes = 2;
    s.config.preemption = PreemptionPolicy::kCheckpointRestore;
    // At the default Optane rates a checkpoint of these short classes
    // never pays for itself; a fast checkpoint tier makes it pay.
    s.config.checkpoint.checkpoint_write_bw = gbps(100.0);
    s.config.checkpoint.restore_read_bw = gbps(100.0);
    s.packs = s.preempts = true;
    scenarios.push_back(std::move(s));
  }
  {
    CrossScenario s{"colocation-hetero",
                    golden_config(PlacementPolicy::kColocationAware),
                    straddle_stream(40, 2 * kMillisecond, 0),
                    0x116d9732a5846994ULL};
    s.config.nodes = 3;
    s.config.node_specs = golden_hetero_specs(s.config.nodes);
    s.packs = true;
    scenarios.push_back(std::move(s));
  }
  {
    CrossScenario s{"recommender-hetero-window4",
                    golden_config(PlacementPolicy::kRecommenderAware),
                    golden_stream(scenario_named("recommender")),
                    0xd6b7c2e988d0ac53ULL};
    s.config.node_specs = golden_hetero_specs(s.config.nodes);
    s.config.planner.window = 4;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

TEST(PlannerCrossFeature, SchedulesAndCacheTrafficMatchTheirPins) {
  for (const CrossScenario& scenario : cross_scenarios()) {
    auto result = OnlineScheduler(scenario.config).run(scenario.stream);
    ASSERT_TRUE(result.has_value())
        << scenario.name << ": " << result.error().message;
    const std::uint64_t fingerprint = traffic_fingerprint(*result);
    EXPECT_EQ(fingerprint, scenario.pin)
        << scenario.name << ": actual fingerprint 0x" << std::hex
        << fingerprint;
    const ServiceMetrics& m = result->metrics;
    EXPECT_EQ(m.completed + m.dropped, scenario.stream.size())
        << scenario.name;
    if (scenario.dags) {
      EXPECT_GT(m.dag_completed, 0u) << scenario.name;
    }
    if (scenario.stages) {
      EXPECT_GT(m.stage_hits, 0u) << scenario.name;
    }
    if (scenario.evicts) {
      EXPECT_GT(m.evictions, 0u) << scenario.name;
    }
    if (scenario.packs) {
      EXPECT_GT(m.colocations, 0u) << scenario.name;
    }
    if (scenario.preempts) {
      EXPECT_GT(m.preemptions, 0u) << scenario.name;
    }
  }
}

}  // namespace
}  // namespace pmemflow::service
