// DAG workflow runs on the workflow engine.
//
// A DagSpec becomes one workflow::Job: one engine component per DAG
// component (a SyntheticSimulation built from its producer fields and
// a constant-rate SyntheticAnalytics from `analytics_ns_per_object`)
// and one engine edge per DAG edge, so a component consumes version v
// from every in-edge, then produces version v on every out-edge,
// honoring per-edge capacity bounds and the DRAM staging tier.
//
// Placement is per component (socket pin) and per edge (which socket's
// PMEM holds the channel). Unlike a pair deployment, producer and
// consumer MAY share a socket: that is fusion — the edge between them
// becomes "ephemeral" (every access classifies local, no UPI leg),
// while cut edges pay the interconnect cost. A two-component chain
// placed on distinct sockets is the same job a pair run builds, so it
// replays byte-identically to workflow::Runner::run (pinned by
// tests/dag/runner_test.cpp).
#pragma once

#include <utility>
#include <vector>

#include "capacity/staging.hpp"
#include "common/expected.hpp"
#include "dag/spec.hpp"
#include "topo/platform.hpp"
#include "trace/tracer.hpp"
#include "workflow/runner.hpp"

namespace pmemflow::dag {

/// How to deploy one DAG on a node.
struct DagRunOptions {
  /// Socket pin per component, indexed like DagSpec::components.
  std::vector<topo::SocketId> component_sockets;
  /// Channel-hosting socket per edge, indexed like DagSpec::edges; must
  /// equal the producer's or the consumer's socket.
  std::vector<topo::SocketId> edge_sockets;
  /// DRAM staging tier applied on every socket hosting a channel
  /// (disabled by default; identical semantics to a pair run).
  capacity::StagingParams staging;
  trace::Tracer* tracer = nullptr;
};

/// Measured outcome of one DAG run: the engine's job result (edges
/// indexed like DagSpec::edges) plus the node it ran on.
struct DagRunResult : workflow::JobResult {
  /// Stats of every socket that hosted a channel, ascending socket id.
  std::vector<std::pair<topo::SocketId, sim::FlowResourceStats>> devices;
  /// Staging stats summed over the per-socket tiers (zero when off).
  capacity::StagingStats staging;
  /// Edges whose producer and consumer share a socket (fused).
  std::uint64_t ephemeral_edges = 0;
  std::uint64_t engine_events = 0;
};

/// Simulates one DAG deployment on `runner`'s platform and backends
/// (the run's allocator counters accumulate in `runner`). Fails with
/// no side effects on invalid specs or placements (unknown sockets,
/// edge not local to an endpoint, per-socket core demand exceeding
/// cores_per_socket).
Expected<DagRunResult> run(const workflow::Runner& runner, const DagSpec& dag,
                           const DagRunOptions& options);

}  // namespace pmemflow::dag
