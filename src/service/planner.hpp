// The placement planner: candidate generation, policy scoring, and
// bounded lookahead over a window of queued submissions.
//
// Placement used to live inside the scheduler as five per-policy
// chooser methods that enumerated nodes, scored them, and leaked
// partial decisions into the dispatch path. The planner splits that
// into the three stages the rest of the service composes:
//
//   1. candidate generation — a policy-neutral enumerator over idle
//      nodes, sockets (capacity spill), co-location pairings, and
//      whole-node DAG placements. Which candidates need their class
//      profile resolved *during* enumeration is a per-policy property
//      (capacity tiers and heterogeneous recommender routing do;
//      first-fit/least-loaded do not), and the enumerator mirrors the
//      legacy lookup pattern exactly so a window-1 plan is
//      byte-identical to the pre-planner greedy path — including the
//      profile-cache traffic.
//   2. scoring — each PlacementPolicy is a pure lexicographic score
//      (tier, load, cost, node, slot) over candidates, built from the
//      device-aware runtime estimates in the ProfileCache and the
//      measured InterferenceTable slowdowns. Lower wins; ties resolve
//      by node index, so selection is deterministic.
//   3. commit — the planner never mutates the Fleet. Replay::dispatch
//      commits the returned steps one at a time (the only code path
//      that starts work, charges leases, or evicts), and preemption
//      goes through the same commit surface.
//
// Each placement decision is made in one function that every stage
// calls: the node-keyed profile and DAG-profile lookups and the pack
// check (Planner::lookup_profile, lookup_dag_profile, pack_fit; the
// replay's commit and preemption code call them too), the Table I pick
// (planned_config), the fused-vs-spread DAG plan (planned_fusion) and
// the capacity lease (lease_for over a ChannelVolume).
//
// With window > 1 the planner batches: it plans up to k queued
// submissions per wake-up with a greedy min-estimated-finish insertion
// (urgent before normal before batch; deterministic tie-breaks), so
// short work backfills around a stuck head and heterogeneous fleets
// route each class to the backend where it finishes earliest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "service/colocation.hpp"
#include "service/fleet.hpp"
#include "service/profile_cache.hpp"
#include "service/types.hpp"

namespace pmemflow::service {

struct ServiceConfig;  // service/scheduler.hpp (which includes us)

/// Knobs of the lookahead planner (ServiceConfig::planner).
struct PlannerConfig {
  /// Queued submissions planned jointly per scheduler wake-up. 1 (the
  /// default) plans greedily one-at-a-time and is byte-identical to
  /// the pre-planner per-policy placement path.
  std::uint32_t window = 1;
};

/// One scored placement option for one submission: where it would land
/// and everything the commit stage needs to start it there.
struct PlacementCandidate {
  SlotRef ref;
  /// Interference factor charged to the dispatched task (1.0 solo).
  double factor = 1.0;
  /// True when joining an incumbent on a partially-occupied node.
  bool packs = false;
  /// New factor for the incumbent when packing.
  double incumbent_factor = 1.0;
  /// Candidate's profile when the policy resolved it during
  /// enumeration (colocation, capacity tiers, lookahead estimates);
  /// null means the commit stage resolves it.
  std::shared_ptr<const CachedProfile> profile;
  /// DAG candidate's profile (exactly one of profile/dag_profile is
  /// set for a resolved DAG choice; dag_profile may be !placeable(),
  /// in which case the commit drops the submission instead).
  std::shared_ptr<const CachedDagProfile> dag_profile;
  bool cache_hit = false;
  /// Capacity-aware spill: run under the placement-flipped fixed
  /// config so the channel lands on the node's other socket.
  bool flip_placement = false;
  /// Lease already sized during capacity-aware tiering (0 = size it
  /// at commit).
  Bytes lease_bytes = 0;

  // -- scoring inputs (stage 2), lower is better, lexicographic --
  /// Policy preference class: 0 = solo/idle placement (or the best
  /// capacity fit), 1..3 = worse capacity fits / co-location packs,
  /// 4 = capacity's untracked fallback.
  std::uint64_t tier = 0;
  /// Policy load key: accumulated busy time (least-loaded family),
  /// estimated runtime (heterogeneous recommender routing), or 0
  /// (first-fit — node index alone decides).
  std::uint64_t load = 0;
  /// Measured combined pack slowdown (co-location packs only).
  double cost = 0.0;
  /// Estimated solo runtime under the policy's chosen configuration
  /// (lookahead windows only; 0 at window 1).
  SimDuration estimate_ns = 0;
};

/// One planned placement: which queued submission goes where.
struct PlannedStep {
  /// Submission id at plan time (commit pops it from the queue by id).
  std::uint64_t id = 0;
  PlacementCandidate candidate;
};

struct Plan {
  /// Steps in commit order; empty when nothing in the window can place
  /// (the dispatcher then considers preemption).
  std::vector<PlannedStep> steps;
};

/// A profile lookup's result. `cache_hit` is the profile cache's
/// hit-counter delta around the lookup: it is observable in completion
/// records and metrics, so lookup order is part of the window-1
/// equivalence contract.
template <typename Profile>
struct Resolved {
  std::shared_ptr<const Profile> profile;
  bool cache_hit = false;
};

/// Stateless across plans: a Replay builds one per run and counts the
/// plans it asks for. The planner also owns the node-keyed lookups the
/// commit and preemption code use, so each lookup has one path.
class Planner {
 public:
  /// `config`, `cache` and `interference` must outlive the planner.
  Planner(const ServiceConfig& config, ProfileCache& cache,
          InterferenceTable& interference)
      : config_(config), cache_(cache), interference_(interference) {}

  /// Plans up to PlannerConfig::window steps for `window` (the first
  /// queued submissions in dispatch order) against `fleet` at `now`.
  /// Never mutates the fleet.
  [[nodiscard]] Expected<Plan> plan(const Fleet& fleet,
                                    std::span<const Submission* const> window,
                                    SimTime now);

  /// Profile lookup against the backend of `node` (the cache's default
  /// backend on a homogeneous fleet).
  [[nodiscard]] Expected<Resolved<CachedProfile>> lookup_profile(
      const workflow::WorkflowSpec& spec, std::uint32_t node);
  /// DAG profile lookup against the backend of `node`.
  [[nodiscard]] Expected<Resolved<CachedDagProfile>> lookup_dag_profile(
      const dag::DagSpec& spec, std::uint32_t node);
  /// The pack check: may a pair submission (`joiner_spec`, already
  /// profiled on `node` as `joiner`) join `incumbent`, the sole tenant
  /// of `node`? A DAG incumbent owns both sockets and admits nobody;
  /// otherwise the pair must be colocation_compatible and its measured
  /// interference on `node`'s backend feasible. Returns that measurement
  /// (slowdown_a is the incumbent's) or nullopt when the joiner may not
  /// pack. Looks up the incumbent's profile after the caller's joiner
  /// lookup, which keeps each caller's cache traffic.
  [[nodiscard]] Expected<std::optional<PairInterference>> pack_fit(
      const Submission& incumbent, const CachedProfile& joiner,
      const workflow::WorkflowSpec& joiner_spec, std::uint32_t node);

 private:
  [[nodiscard]] bool heterogeneous() const noexcept;
  [[nodiscard]] bool capacity_on() const noexcept;
  /// Candidate generation (stage 1). `consumed[n]` marks nodes taken
  /// by earlier steps of the same window plan. In lookahead mode every
  /// candidate carries a resolved profile and runtime estimate; at
  /// window 1 resolution follows the legacy per-policy pattern and
  /// finalize() completes the winner.
  [[nodiscard]] Expected<std::vector<PlacementCandidate>> enumerate(
      const Fleet& fleet, const Submission& next, SimTime now,
      const std::vector<bool>& consumed, bool lookahead);
  /// Looks up `next`'s profile (its DAG profile for a DAG) on the
  /// candidate's node and stores it, with its cache_hit, on `candidate`.
  [[nodiscard]] Status resolve(const Submission& next,
                               PlacementCandidate& candidate);
  /// Resolves whatever the window-1 winner still lacks (DAG profile;
  /// heterogeneous co-location solo profile).
  [[nodiscard]] Status finalize(const Submission& next,
                                PlacementCandidate& candidate);
  /// Estimated solo runtime of `next` under `candidate` (device-aware
  /// roofline from the cached profile sweep; pack-scaled).
  [[nodiscard]] SimDuration estimate_runtime(
      const Submission& next, const PlacementCandidate& candidate) const;

  const ServiceConfig& config_;
  ProfileCache& cache_;
  InterferenceTable& interference_;
};

/// Dual-socket nodes throughout (the paper's testbed shape).
inline constexpr std::uint32_t kSocketsPerNode = 2;

/// Socket the streaming channel lands on under `config`: writer ranks
/// live on socket 0 and reader ranks on socket 1, so local-write pins
/// the channel to 0 and local-read to 1.
[[nodiscard]] std::uint32_t channel_socket_of(
    const core::DeploymentConfig& config) noexcept;

[[nodiscard]] core::Placement flipped(core::Placement placement) noexcept;

/// What a channel materializes, fleet-wide (all ranks, all DAG edges):
/// the basis of its capacity lease, its staging discount and its
/// retained residue.
struct ChannelVolume {
  Bytes snapshot_bytes = 0;
  std::uint64_t ops = 0;
  /// At least 1.
  std::uint32_t iterations = 1;
};

/// A pair workflow's channel: the profile's per-rank numbers times the
/// rank count (same basis as RunningTask::snapshot_bytes_per_iteration).
[[nodiscard]] ChannelVolume channel_volume(const CachedProfile& profile,
                                           const workflow::WorkflowSpec& spec);
/// A DAG's channels: the profile already sums every edge and rank.
[[nodiscard]] ChannelVolume channel_volume(const CachedDagProfile& profile);

/// Capacity lease for `volume`: live snapshot volume under the
/// retention policy plus metadata growth (docs/CAPACITY.md).
[[nodiscard]] Bytes lease_for(const capacity::ResidencyParams& params,
                              const ChannelVolume& volume);

/// Table I configuration the configured policy would run `profile`
/// under (fixed → recommender → colocation preferred-parallel, with
/// the capacity spill flip applied last).
[[nodiscard]] core::DeploymentConfig planned_config(
    const ServiceConfig& config, const CachedProfile& profile,
    bool flip_placement);

/// Whether a DAG runs its fused plan: kDagFusion runs the fusion-search
/// placement, every other policy the spread baseline; either falls back
/// to the other when its own plan does not fit the node shape.
[[nodiscard]] bool planned_fusion(const ServiceConfig& config,
                                  const CachedDagProfile& profile);

}  // namespace pmemflow::service
