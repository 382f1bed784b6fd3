#include "workflow/runner.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "stack/nova_channel.hpp"
#include "stack/nvstream.hpp"

namespace pmemflow::workflow {

const char* to_string(WorkflowSpec::Stack stack) noexcept {
  switch (stack) {
    case WorkflowSpec::Stack::kNvStream: return "nvstream";
    case WorkflowSpec::Stack::kNova: return "nova";
  }
  return "?";
}

namespace {

/// Verifies a read-back part against the model's ground truth. Returns
/// the number of mismatches (0 = clean).
std::uint64_t verify_part(const stack::SnapshotPart& expected,
                          const stack::SnapshotPart& actual) {
  if (const auto* run = std::get_if<stack::SyntheticRun>(&expected)) {
    const auto* actual_run = std::get_if<stack::SyntheticRun>(&actual);
    if (actual_run == nullptr) return run->count;
    return (*run == *actual_run) ? 0 : run->count;
  }
  const auto& expected_objects =
      std::get<std::vector<stack::ObjectData>>(expected);
  const auto* actual_objects =
      std::get_if<std::vector<stack::ObjectData>>(&actual);
  if (actual_objects == nullptr ||
      actual_objects->size() != expected_objects.size()) {
    return expected_objects.size();
  }
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < expected_objects.size(); ++i) {
    const auto& want = expected_objects[i];
    const auto& got = (*actual_objects)[i];
    if (want.index != got.index ||
        want.payload.checksum() != got.payload.checksum()) {
      ++mismatches;
    }
  }
  return mismatches;
}

struct ComponentState;

/// Per-edge simulation state: one channel and the synchronization of
/// one writer→reader coupling.
struct EdgeState {
  EdgeState(sim::Engine& engine, const Edge& edge, std::uint32_t parties)
      : spec(edge),
        ranks(parties),
        version_gate(engine),
        producer_barrier(engine, parties),
        consumer_barrier(engine, parties),
        capacity_gate(engine),
        drain_gate(engine) {}

  const Edge& spec;
  std::uint32_t ranks;
  ComponentState* producer = nullptr;
  std::unique_ptr<stack::StreamChannel> channel;
  sim::VersionGate version_gate;  // snapshot commits
  sim::Barrier producer_barrier;
  sim::Barrier consumer_barrier;
  std::optional<sim::Semaphore> capacity;  // empty when unbounded
  sim::VersionGate capacity_gate;

  /// Per-socket DRAM staging tier (shared by every edge on the socket);
  /// null when this edge writes straight through.
  capacity::StagingTier* staging = nullptr;
  sim::VersionGate drain_gate;              // fully drained versions
  std::vector<std::uint32_t> drained_ranks;  // [version] drain count
  std::uint64_t drained_through = 0;  // drain_gate is contiguous to here
};

struct ComponentState {
  const Component* spec = nullptr;
  std::vector<EdgeState*> in_edges;   // edge-index order
  std::vector<EdgeState*> out_edges;  // edge-index order
};

/// A job's simulation state. Its result fills in as the run goes; the
/// simulated clock only moves forward, so the latest final commit and
/// the latest rank exit are the job's spans.
struct JobState {
  const Job* spec = nullptr;
  JobResult* result = nullptr;
  std::vector<ComponentState> components;
  std::vector<std::unique_ptr<EdgeState>> edges;
};

/// Publishes `version` on `edge`: readers waiting for it wake up.
void commit(sim::Engine& engine, JobState& job, EdgeState& edge,
            std::uint64_t version, const char* how) {
  edge.channel->commit_version(version);
  if (job.spec->tracer != nullptr) {
    job.spec->tracer->instant(
        edge.spec.track,
        format("commit v%llu%s", static_cast<unsigned long long>(version),
               how),
        engine.now());
  }
  edge.version_gate.advance_to(version);
  if (version == job.spec->iterations) {
    job.result->producer_span_ns = engine.now();
  }
}

/// Background device write modelling retention GC rewriting `bytes`
/// of superseded snapshots out of the log. Runs off the critical path
/// but contends for the channel device's write bandwidth.
sim::Task gc_rewrite(EdgeState& edge, Bytes bytes) {
  sim::FlowSpec flow;
  flow.kind = sim::IoKind::kWrite;
  flow.total_bytes = bytes;
  flow.op_size = 256 * kKiB;
  co_await edge.channel->device().io(edge.spec.socket, flow);
}

/// Background drain of one staged part: performs the real device write
/// (issued from the channel socket — the drain is device-side, so it
/// classifies local) and, when every rank of `version` has drained,
/// advances the drain gate contiguously.
sim::Task drain_part(EdgeState& edge, std::uint64_t version,
                     std::uint32_t rank, stack::SnapshotPart part,
                     Bytes staged_bytes) {
  co_await edge.channel->write_part(edge.spec.socket, version, rank,
                                    std::move(part), 0.0);
  if (staged_bytes > 0) edge.staging->drained(staged_bytes);
  edge.drained_ranks[version] += 1;
  while (edge.drained_through + 1 < edge.drained_ranks.size() &&
         edge.drained_ranks[edge.drained_through + 1] == edge.ranks) {
    edge.drained_through += 1;
    edge.drain_gate.advance_to(edge.drained_through);
  }
}

/// Commits staged versions in order as their drains complete; under
/// staging this replaces the producer-barrier releaser's commit.
sim::Task commit_pump(sim::Engine& engine, JobState& job, EdgeState& edge) {
  for (std::uint64_t version = 1; version <= job.spec->iterations; ++version) {
    co_await edge.drain_gate.wait_for(version);
    commit(engine, job, edge, version, " (drained)");
  }
}

/// Releases `version` once every consumer rank has read it: recycles it
/// (or, under retain-k, recycles version - k and charges the GC
/// rewrite) and frees its capacity slot.
void release(sim::Engine& engine, JobResult& result, EdgeState& edge,
             std::uint64_t version) {
  const capacity::RetentionParams& retention = edge.spec.retention;
  if (!retention.enabled()) {
    edge.channel->recycle_version(version);
  } else if (retention.gc && version > retention.retain_versions) {
    // Retain-k: version v keeps the k most recent read versions live;
    // the final k versions are never recycled — the run's cold residue.
    const Bytes before = edge.channel->stats().bytes_reclaimed;
    edge.channel->recycle_version(version - retention.retain_versions);
    const Bytes reclaimed = edge.channel->stats().bytes_reclaimed - before;
    result.gc_bytes += reclaimed;
    if (reclaimed > 0) engine.spawn(gc_rewrite(edge, reclaimed));
  }
  if (edge.capacity.has_value()) edge.capacity->release();
}

/// One component rank: per version, consume from every in-edge (reader
/// role: per-object interleaved compute), then produce on every
/// out-edge (writer role: bulk compute folded into the first write).
sim::Task component_rank(sim::Engine& engine, JobState& state,
                         ComponentState& comp, std::uint32_t rank) {
  const Job& job = *state.spec;
  JobResult& result = *state.result;
  const Component& component = *comp.spec;
  trace::Tracer* tracer = job.tracer;
  const std::string track =
      format("%s/rank%u", component.track.c_str(), rank);
  if (job.serial && !comp.in_edges.empty()) {
    if (tracer != nullptr) {
      tracer->begin(track, "wait all-writers", engine.now());
    }
    for (EdgeState* edge : comp.in_edges) {
      co_await edge->version_gate.wait_for(job.iterations);
    }
    if (tracer != nullptr) tracer->end(track, engine.now());
  }
  for (std::uint64_t version = 1; version <= job.iterations; ++version) {
    for (EdgeState* edge : comp.in_edges) {
      if (tracer != nullptr) {
        tracer->begin(track, format("wait v%llu",
                                    static_cast<unsigned long long>(version)),
                      engine.now());
      }
      co_await edge->version_gate.wait_for(version);
      if (tracer != nullptr) tracer->end(track, engine.now());

      const SimulationModel& producer = *edge->producer->spec->simulation;
      stack::SnapshotPart part;
      // Per-object analytics compute needs the object granularity the
      // producer wrote; derive it from the (deterministic) expected part.
      const double compute_per_op = component.analytics->compute_ns_per_object(
          stack::part_op_size(producer.part_for(rank, edge->ranks, version)));
      if (tracer != nullptr) {
        tracer->begin(track, format("read+analyze v%llu",
                                    static_cast<unsigned long long>(version)),
                      engine.now());
      }
      co_await edge->channel->read_part(component.socket, version, rank, part,
                                        compute_per_op);
      if (tracer != nullptr) tracer->end(track, engine.now());

      if (job.verify_reads) {
        const stack::SnapshotPart expected =
            producer.part_for(rank, edge->ranks, version);
        result.verification_failures += verify_part(expected, part);
        result.objects_verified += stack::part_object_count(expected);
      }
      if (co_await edge->consumer_barrier.arrive_and_wait()) {
        release(engine, result, *edge, version);
      }
    }

    for (EdgeState* edge : comp.out_edges) {
      if (!edge->capacity.has_value()) continue;
      // Finite channel: one slot per in-flight version, acquired by the
      // first rank on behalf of the component.
      if (rank == 0) {
        if (tracer != nullptr) {
          tracer->begin(track, "wait capacity", engine.now());
        }
        co_await edge->capacity->acquire();
        if (tracer != nullptr) tracer->end(track, engine.now());
        edge->capacity_gate.advance_to(version);
      } else {
        co_await edge->capacity_gate.wait_for(version);
      }
    }
    bool carries_compute = true;  // bulk compute rides the first edge
    for (EdgeState* edge : comp.out_edges) {
      stack::SnapshotPart part =
          component.simulation->part_for(rank, component.ranks, version);
      const std::uint64_t objects = stack::part_object_count(part);
      const double compute =
          carries_compute ? component.simulation->compute_ns_per_iteration(
                                rank, component.ranks)
                          : 0.0;
      carries_compute = false;
      const double compute_per_op =
          (objects > 0) ? compute / static_cast<double>(objects) : 0.0;
      if (objects == 0 && compute > 0.0) {
        // Pure-compute iteration (no I/O this round).
        co_await sim::sleep_for(engine, static_cast<SimDuration>(compute));
      }
      if (tracer != nullptr) {
        tracer->begin(track, format("compute+write v%llu",
                                    static_cast<unsigned long long>(version)),
                      engine.now());
      }
      if (edge->staging != nullptr) {
        // Staged cost path: run the iteration's compute, land the part
        // in the DRAM stage (DRAM rate while it has room, drain rate for
        // the overflow), and hand the real device write to a background
        // drain. The commit pump publishes the version once every rank's
        // drain completes.
        if (objects > 0 && compute > 0.0) {
          co_await sim::sleep_for(engine, static_cast<SimDuration>(compute));
        }
        const capacity::AbsorbResult absorbed =
            edge->staging->absorb(stack::part_bytes(part));
        if (absorbed.absorb_ns > 0) {
          co_await sim::sleep_for(engine, absorbed.absorb_ns);
        }
        engine.spawn(drain_part(*edge, version, rank, std::move(part),
                                absorbed.staged_bytes));
      } else {
        co_await edge->channel->write_part(component.socket, version, rank,
                                           std::move(part), compute_per_op);
      }
      if (tracer != nullptr) tracer->end(track, engine.now());
      const bool releaser = co_await edge->producer_barrier.arrive_and_wait();
      if (releaser && edge->staging == nullptr) {
        commit(engine, state, *edge, version, "");
      }
    }
  }
  result.total_ns = engine.now();
}

Status validate_job(const topo::PlatformSpec& platform, const Job& job) {
  if (job.iterations == 0) {
    return make_error("a job needs at least one iteration");
  }
  for (const Component& component : job.components) {
    if (component.ranks == 0) {
      return make_error("a job component needs at least one rank");
    }
    if (component.socket >= platform.sockets) {
      return make_error("placement references a socket the platform lacks");
    }
    if (component.ranks > platform.cores_per_socket) {
      return make_error(format("%u ranks exceed the %u cores of a socket",
                               component.ranks, platform.cores_per_socket));
    }
  }
  for (const Edge& edge : job.edges) {
    if (edge.producer >= job.components.size() ||
        edge.consumer >= job.components.size()) {
      return make_error(format("channel %s names an unknown component",
                               edge.channel.c_str()));
    }
    const Component& producer = job.components[edge.producer];
    const Component& consumer = job.components[edge.consumer];
    if (producer.simulation == nullptr || consumer.analytics == nullptr) {
      return make_error(format("channel %s is missing a component model",
                               edge.channel.c_str()));
    }
    if (producer.ranks != consumer.ranks) {
      return make_error(format("channel %s pairs %u ranks with %u",
                               edge.channel.c_str(), producer.ranks,
                               consumer.ranks));
    }
    // Endpoint sockets are valid, so a local channel's socket is too.
    if (edge.socket != producer.socket && edge.socket != consumer.socket) {
      return make_error(
          format("channel %s must be local to one of its components",
                 edge.channel.c_str()));
    }
  }
  return ok_status();
}

}  // namespace

Runner::Runner(topo::PlatformSpec platform, devices::NodeDevices devices)
    : platform_(std::move(platform)), devices_(std::move(devices)) {}

Expected<RunResult> Runner::run(const WorkflowSpec& spec,
                                const RunOptions& options) const {
  const Deployment deployment{spec, options};
  auto colocated = run_colocated({&deployment, 1});
  if (!colocated.has_value()) return Unexpected{colocated.error()};
  return std::move(colocated->workflows.front());
}

Expected<ColocatedResult> Runner::run_colocated(
    std::span<const Deployment> deployments) const {
  if (deployments.empty()) {
    return make_error("no deployments given");
  }
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const auto& [spec, options] = deployments[i];
    if (options.writer_socket == options.reader_socket) {
      return make_error(
          "in situ components must be pinned to distinct sockets "
          "(same-socket deployments are out of scope, paper SII-A)");
    }
    if (options.serial && spec.channel_capacity != 0 &&
        spec.channel_capacity < spec.iterations) {
      return make_error(format(
          "serial execution keeps all %u versions live; channel capacity "
          "%u would deadlock the writers",
          spec.iterations, spec.channel_capacity));
    }
    // Track names disambiguate tenants only when there are several.
    const std::string prefix =
        deployments.size() > 1 ? format("w%zu/", i) : std::string();
    Job job;
    job.components = {
        {spec.ranks, options.writer_socket, spec.simulation, nullptr,
         prefix + "sim"},
        {spec.ranks, options.reader_socket, nullptr, spec.analytics,
         prefix + "ana"}};
    job.edges = {{0, 1, options.channel_socket, spec.stack,
                  spec.cost_override, spec.channel_capacity, options.retention,
                  spec.label, prefix + "channel"}};
    job.iterations = spec.iterations;
    job.serial = options.serial;
    job.verify_reads = spec.verify_reads;
    job.staging = options.staging;
    job.tracer = options.tracer;
    jobs.push_back(std::move(job));
  }
  auto run = run_jobs(jobs);
  if (!run.has_value()) return Unexpected{run.error()};

  ColocatedResult result;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const topo::SocketId socket = jobs[i].edges.front().socket;
    JobResult& job = run->jobs[i];
    RunResult pair;
    pair.total_ns = job.total_ns;
    pair.writer_span_ns = job.producer_span_ns;
    pair.objects_verified = job.objects_verified;
    pair.verification_failures = job.verification_failures;
    pair.channel = job.edges.front();
    pair.device = run->devices.at(socket);
    if (const auto stage = run->staging.find(socket);
        stage != run->staging.end()) {
      pair.staging = stage->second;
    }
    pair.gc_bytes = job.gc_bytes;
    pair.resident_bytes =
        pair.channel.payload_bytes_written > pair.channel.bytes_reclaimed
            ? pair.channel.payload_bytes_written - pair.channel.bytes_reclaimed
            : 0;
    pair.engine_events = run->engine_events;
    result.makespan_ns = std::max(result.makespan_ns, pair.total_ns);
    result.workflows.push_back(std::move(pair));
  }
  return result;
}

Expected<EngineResult> Runner::run_jobs(std::span<const Job> jobs) const {
  for (const Job& job : jobs) {
    if (auto valid = validate_job(platform_, job); !valid) {
      return Unexpected{valid.error()};
    }
  }
  // Joint core-demand validation (allocations are released with the
  // Platform object; they exist to reject over-committed nodes).
  topo::Platform platform(platform_);
  for (const Job& job : jobs) {
    for (const Component& component : job.components) {
      auto cores = platform.allocate_cores(component.socket, component.ranks);
      if (!cores.has_value()) return Unexpected{cores.error()};
    }
  }

  sim::Engine engine;

  // One device per socket that hosts at least one channel, each built
  // from that socket's backend spec, with its backing space sized by
  // the spec's own capacity (falling back to the platform DIMM
  // population when the spec leaves it 0); one DRAM staging tier per
  // such socket where any job asks for one.
  std::map<topo::SocketId, std::unique_ptr<devices::MemoryDevice>> devices;
  std::map<topo::SocketId, std::unique_ptr<capacity::StagingTier>> stages;
  for (const Job& job : jobs) {
    for (const Edge& edge : job.edges) {
      if (!devices.contains(edge.socket)) {
        const devices::DeviceSpec& spec = devices_.for_socket(edge.socket);
        devices.emplace(edge.socket,
                        std::make_unique<devices::MemoryDevice>(
                            engine, edge.socket,
                            spec.capacity_or(platform_.pmem_per_socket()),
                            spec));
      }
      if (!job.staging.enabled()) continue;
      if (const auto stage = stages.find(edge.socket); stage == stages.end()) {
        stages.emplace(edge.socket,
                       std::make_unique<capacity::StagingTier>(job.staging));
      } else if (stage->second->params() != job.staging) {
        return make_error(
            format("socket %u hosts channels that ask for different "
                   "staging tiers; its DRAM stage is shared",
                   edge.socket));
      }
    }
  }

  EngineResult result;
  result.jobs.resize(jobs.size());
  std::vector<JobState> states(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    JobState& state = states[j];
    state.spec = &job;
    state.result = &result.jobs[j];
    state.components.resize(job.components.size());
    for (std::size_t c = 0; c < job.components.size(); ++c) {
      state.components[c].spec = &job.components[c];
    }
    for (const Edge& edge : job.edges) {
      const std::uint32_t ranks = job.components[edge.producer].ranks;
      auto es = std::make_unique<EdgeState>(engine, edge, ranks);
      devices::MemoryDevice& device = *devices.at(edge.socket);
      switch (edge.stack) {
        case WorkflowSpec::Stack::kNvStream:
          es->channel = std::make_unique<stack::NvStreamChannel>(
              device, edge.channel, ranks,
              edge.cost_override.value_or(stack::nvstream_cost_model()));
          break;
        case WorkflowSpec::Stack::kNova:
          es->channel = std::make_unique<stack::NovaChannel>(
              device, edge.channel, ranks,
              edge.cost_override.value_or(stack::nova_cost_model()));
          break;
      }
      if (edge.capacity != 0 && !job.serial) {
        es->capacity.emplace(engine, edge.capacity);
      }
      if (job.staging.enabled()) {
        es->staging = stages.at(edge.socket).get();
        es->drained_ranks.assign(job.iterations + 1, 0);
      }
      es->producer = &state.components[edge.producer];
      state.components[edge.producer].out_edges.push_back(es.get());
      state.components[edge.consumer].in_edges.push_back(es.get());
      state.edges.push_back(std::move(es));
    }
  }

  // Rank-major across each job's components: a writer-then-reader pair
  // interleaves writer0, reader0, writer1, reader1, ...
  for (JobState& state : states) {
    std::uint32_t max_ranks = 0;
    for (const Component& component : state.spec->components) {
      max_ranks = std::max(max_ranks, component.ranks);
    }
    for (std::uint32_t rank = 0; rank < max_ranks; ++rank) {
      for (ComponentState& comp : state.components) {
        if (rank < comp.spec->ranks) {
          engine.spawn(component_rank(engine, state, comp, rank));
        }
      }
    }
    for (auto& edge : state.edges) {
      if (edge->staging != nullptr) {
        engine.spawn(commit_pump(engine, state, *edge));
      }
    }
  }
  const sim::RunStats engine_stats = engine.run_to_completion();

  for (const JobState& state : states) {
    for (const auto& edge : state.edges) {
      state.result->edges.push_back(edge->channel->stats());
    }
  }
  for (const auto& [socket, device] : devices) {
    allocator_counters_ += device->allocator_counters();
    result.devices.emplace(socket, device->stats());
  }
  for (const auto& [socket, stage] : stages) {
    result.staging.emplace(socket, stage->stats());
  }
  result.engine_events = engine_stats.events_processed;
  return result;
}

}  // namespace pmemflow::workflow
