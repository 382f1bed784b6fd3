// Workflow execution engine.
//
// One discrete-event engine runs every workflow shape in this repo.
// Callers describe *jobs*: a job is a set of components (ranks pinned
// to a socket, a writer-side SimulationModel, a reader-side
// AnalyticsModel) joined by edges (one streaming channel each, placed
// on a socket's PMEM). Runner::run_jobs builds the simulated platform
// (engine + per-socket memory devices + DRAM staging tiers + channels),
// spawns one coroutine per component rank, and runs every job to
// completion on the same clock, so co-located jobs contend for the
// shared per-socket devices exactly as the paper's §II-A multi-tenancy
// setting describes. The Table I taxonomy (S/P-LocW/LocR) lives in
// core/config.hpp; component DAGs adapt onto run_jobs in dag/runner.hpp.
//
// run()/run_colocated() adapt the paper's writer+reader pair: each
// deployment becomes a two-component, one-edge job.
//
// Mode semantics (paper §II-A), per job:
//   serial:   a consumer rank starts only after every version of its
//             in-edges has committed; PMEM accesses never overlap.
//   parallel: a consumer reads snapshot v as soon as it commits, so
//             reads overlap the producer's compute and writes.
//
// Every run verifies data end-to-end when the job's verify_reads is
// set: consumers check what they decode against what the producer's
// model says was written.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "capacity/lifecycle.hpp"
#include "capacity/staging.hpp"
#include "common/expected.hpp"
#include "devices/registry.hpp"
#include "pmemsim/allocator.hpp"
#include "topo/platform.hpp"
#include "trace/tracer.hpp"
#include "workflow/model.hpp"

namespace pmemflow::workflow {

/// How to deploy one workflow.
struct RunOptions {
  /// Serial (true) or parallel (false) execution mode.
  bool serial = false;
  /// Socket the simulation's ranks are pinned to.
  topo::SocketId writer_socket = 0;
  /// Socket the analytics' ranks are pinned to (must differ).
  topo::SocketId reader_socket = 1;
  /// Socket whose PMEM holds the streaming channel: equal to
  /// writer_socket for local-write placement, reader_socket for
  /// local-read placement.
  topo::SocketId channel_socket = 0;

  /// DRAM staging tier on the channel socket. Disabled by default:
  /// writes go straight to the device exactly as before. When enabled,
  /// writer ranks land their parts in the stage at DRAM rate
  /// (throttling to the drain rate once it fills) and a background
  /// drain performs the real device write; a version commits only
  /// after every rank's drain completes.
  capacity::StagingParams staging;
  /// nvstream version retention + GC. Disabled by default: a version
  /// recycles the moment its readers finish, exactly as before. When
  /// enabled, the k most recent read versions stay live and GC
  /// recycles version v-k after v is read, charging the rewrite as a
  /// background device write flow; the final k versions are never
  /// recycled and remain resident at the end of the run.
  capacity::RetentionParams retention;

  /// Optional execution tracer: records per-rank compute / write /
  /// wait / read spans against the simulated clock (Chrome trace
  /// exportable). Must outlive the run() call.
  trace::Tracer* tracer = nullptr;
};

/// One workflow plus its deployment, for co-located runs.
struct Deployment {
  WorkflowSpec spec;
  RunOptions options;
};

/// Measured outcome of one workflow's run.
struct RunResult {
  /// End-to-end workflow runtime (the paper's primary metric).
  SimDuration total_ns = 0;
  /// Time at which the last writer rank finished its final iteration.
  SimDuration writer_span_ns = 0;
  /// total - writer span; in serial mode this is the reader phase of
  /// the split bar graphs (Fig 4-9).
  [[nodiscard]] SimDuration reader_span_ns() const noexcept {
    return total_ns - writer_span_ns;
  }

  std::uint64_t objects_verified = 0;
  std::uint64_t verification_failures = 0;
  stack::ChannelStats channel;
  /// Stats of the channel's device. Under co-location the device is
  /// shared, so these aggregate all tenants' traffic on that socket.
  sim::FlowResourceStats device;
  /// Staging-tier stats of the channel socket (all zero when staging
  /// is disabled; aggregated across tenants sharing the socket).
  capacity::StagingStats staging;
  /// Bytes retention GC reclaimed and rewrote during the run (0 when
  /// retention is disabled).
  Bytes gc_bytes = 0;
  /// Channel bytes still live when the run ended: the retained
  /// versions retention never recycled — the cold residue a
  /// capacity-aware service must evict or collect.
  Bytes resident_bytes = 0;
  std::uint64_t engine_events = 0;
};

/// Outcome of a co-located run.
struct ColocatedResult {
  /// Per-deployment results, in input order.
  std::vector<RunResult> workflows;
  /// Time the last workflow finished (all start at t = 0).
  SimDuration makespan_ns = 0;
};

/// One component of an engine job: `ranks` coroutines pinned to
/// `socket`. Per version a rank consumes from every in-edge, then
/// produces on every out-edge.
struct Component {
  std::uint32_t ranks = 0;
  topo::SocketId socket = 0;
  /// Producer side: each rank's part per version and its bulk compute
  /// (folded into the first out-edge's write). Required with out-edges.
  std::shared_ptr<const SimulationModel> simulation;
  /// Consumer side: compute interleaved per object read. Required with
  /// in-edges.
  std::shared_ptr<const AnalyticsModel> analytics;
  /// Tracer track prefix; rank r records on "<track>/rank<r>".
  std::string track;
};

/// One streaming channel between two components of the same job, with
/// a 1:1 rank pairing (paper §IV-C).
struct Edge {
  std::size_t producer = 0;  // component indices within the job
  std::size_t consumer = 0;
  /// Socket whose PMEM holds the channel; must host an endpoint.
  topo::SocketId socket = 0;
  WorkflowSpec::Stack stack = WorkflowSpec::Stack::kNvStream;
  std::optional<stack::SoftwareCostModel> cost_override;
  /// Max versions live in the channel (0 = unbounded; not enforced in
  /// serial jobs, where every version is live before any read).
  std::uint32_t capacity = 0;
  capacity::RetentionParams retention;
  std::string channel;  // channel name
  std::string track;    // tracer track of the commit markers
};

/// Independent components and edges sharing one simulated node.
struct Job {
  std::vector<Component> components;
  std::vector<Edge> edges;
  std::uint32_t iterations = 0;
  bool serial = false;
  bool verify_reads = true;
  /// DRAM staging tier on every channel socket of this job. Jobs whose
  /// channels share a socket share its tier, so their parameters must
  /// agree.
  capacity::StagingParams staging;
  trace::Tracer* tracer = nullptr;
};

/// Measured outcome of one job.
struct JobResult {
  /// Time the job's last component rank finished.
  SimDuration total_ns = 0;
  /// Time the last version of the job's last edge committed.
  SimDuration producer_span_ns = 0;
  std::uint64_t objects_verified = 0;
  std::uint64_t verification_failures = 0;
  /// Per-edge channel stats, indexed like Job::edges.
  std::vector<stack::ChannelStats> edges;
  /// Bytes retention GC reclaimed and rewrote, over all edges.
  Bytes gc_bytes = 0;
};

/// Outcome of one run_jobs call.
struct EngineResult {
  /// Per-job results, in input order.
  std::vector<JobResult> jobs;
  /// Stats of every socket that hosted a channel (shared by its jobs).
  std::map<topo::SocketId, sim::FlowResourceStats> devices;
  /// Stats of every socket's staging tier, where one was built.
  std::map<topo::SocketId, capacity::StagingStats> staging;
  std::uint64_t engine_events = 0;
};

/// Reusable run harness; owns only immutable configuration, so one
/// Runner can execute many workflows/configurations sequentially.
class Runner {
 public:
  /// Per-socket memory backends come from `devices`.
  explicit Runner(topo::PlatformSpec platform = {},
                  devices::NodeDevices devices = {});

  /// Simulates one workflow deployment. Fails (no side effects) on
  /// invalid deployments: same-socket components, rank counts exceeding
  /// per-socket cores, or unknown sockets.
  Expected<RunResult> run(const WorkflowSpec& spec,
                          const RunOptions& options) const;

  /// Simulates several workflows sharing the node simultaneously. Core
  /// demands are validated jointly (each component needs its ranks'
  /// worth of cores on its socket); channels land on the per-socket
  /// devices, so tenants contend for PMEM exactly as the paper's
  /// multi-tenancy discussion describes.
  Expected<ColocatedResult> run_colocated(
      std::span<const Deployment> deployments) const;

  /// Runs every job on one engine. Spawn order is fixed (jobs in input
  /// order, each rank-major over its components, then its staged edges'
  /// commit pumps), which keeps every replay deterministic.
  /// Fails (no side effects) on malformed jobs, unknown sockets,
  /// channels not local to an endpoint, joint core demand beyond a
  /// socket's cores, or jobs asking one socket for different staging
  /// tiers.
  Expected<EngineResult> run_jobs(std::span<const Job> jobs) const;

  [[nodiscard]] const topo::PlatformSpec& platform() const noexcept {
    return platform_;
  }
  /// The node's per-socket memory backends.
  [[nodiscard]] const devices::NodeDevices& devices() const noexcept {
    return devices_;
  }

  /// Allocator counters summed over every device of every run this
  /// Runner has executed so far (observational only; the devices
  /// themselves are torn down at the end of each run).
  [[nodiscard]] const pmemsim::AllocatorCounters& allocator_counters()
      const noexcept {
    return allocator_counters_;
  }

 private:
  topo::PlatformSpec platform_;
  devices::NodeDevices devices_;
  /// Accumulated from each run's short-lived devices; mutable because
  /// the run calls are const (they don't change configuration).
  mutable pmemsim::AllocatorCounters allocator_counters_;
};

}  // namespace pmemflow::workflow
