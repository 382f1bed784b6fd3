#include "service/planner.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "dag/spec.hpp"
#include "service/scheduler.hpp"
#include "workflow/model.hpp"

namespace pmemflow::service {
namespace {

/// Stage-2 score: strict lexicographic (tier, load, cost, node, slot),
/// lower wins. Candidates are enumerated node-ascending, so keeping the
/// first strict minimum reproduces every legacy keep-first tie-break.
bool score_better(const PlacementCandidate& a, const PlacementCandidate& b) {
  if (a.tier != b.tier) return a.tier < b.tier;
  if (a.load != b.load) return a.load < b.load;
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.ref.node != b.ref.node) return a.ref.node < b.ref.node;
  return a.ref.slot < b.ref.slot;
}

/// Lookahead score: estimated finish first, policy score as tie-break.
bool estimate_better(const PlacementCandidate& a, const PlacementCandidate& b) {
  if (a.estimate_ns != b.estimate_ns) return a.estimate_ns < b.estimate_ns;
  return score_better(a, b);
}

}  // namespace

std::uint32_t channel_socket_of(const core::DeploymentConfig& config) noexcept {
  return config.placement == core::Placement::kLocalWrite ? 0u : 1u;
}

core::Placement flipped(core::Placement placement) noexcept {
  return placement == core::Placement::kLocalWrite
             ? core::Placement::kLocalRead
             : core::Placement::kLocalWrite;
}

ChannelVolume channel_volume(const CachedProfile& profile,
                             const workflow::WorkflowSpec& spec) {
  return ChannelVolume{
      profile.profile.simulation.bytes_per_iteration * spec.ranks,
      profile.profile.simulation.objects_per_iteration * spec.ranks,
      std::max<std::uint32_t>(1, spec.iterations)};
}

ChannelVolume channel_volume(const CachedDagProfile& profile) {
  return ChannelVolume{profile.bytes_per_iteration,
                       profile.objects_per_iteration,
                       std::max<std::uint32_t>(1, profile.iterations)};
}

Bytes lease_for(const capacity::ResidencyParams& params,
                const ChannelVolume& volume) {
  const capacity::RetentionParams& retention = params.retention;
  // Without GC every committed version stays resident until the channel
  // finishes, so the lease must cover the full version volume — the
  // capacity-blind regime. With GC only the retained window is live.
  const Bytes snapshot_live =
      retention.gc ? capacity::retained_bytes(volume.snapshot_bytes,
                                              volume.iterations, retention)
                   : volume.snapshot_bytes * volume.iterations;
  return snapshot_live + capacity::metadata_peak_bytes(
                             params.nova, volume.ops, volume.iterations);
}

core::DeploymentConfig planned_config(const ServiceConfig& config,
                                      const CachedProfile& profile,
                                      bool flip_placement) {
  core::DeploymentConfig chosen = config.fixed_config;
  if (config.policy == PlacementPolicy::kRecommenderAware) {
    chosen = config.use_rule_based ? profile.rule_based.config
                                   : profile.model_based.config;
  } else if (config.policy == PlacementPolicy::kColocationAware) {
    // Tenants always co-run their components under the faster parallel
    // placement: serial mode would idle the mirrored sockets a
    // co-tenant needs.
    chosen = preferred_parallel_config(profile);
  }
  if (config.policy == PlacementPolicy::kCapacityAware && flip_placement) {
    // Capacity spill: the preferred socket's pool is full, so run the
    // placement-flipped config and land the channel on the other one.
    chosen.placement = flipped(chosen.placement);
  }
  return chosen;
}

bool planned_fusion(const ServiceConfig& config,
                    const CachedDagProfile& profile) {
  return config.policy == PlacementPolicy::kDagFusion
             ? profile.fused_feasible
             : !profile.spread_feasible;
}

bool Planner::heterogeneous() const noexcept {
  return !config_.node_specs.empty();
}

bool Planner::capacity_on() const noexcept {
  return config_.capacity.enabled();
}

Expected<Resolved<CachedProfile>> Planner::lookup_profile(
    const workflow::WorkflowSpec& spec, std::uint32_t node) {
  const std::uint64_t hits_before = cache_.stats().hits;
  auto profile = heterogeneous()
                     ? cache_.lookup(spec, config_.node_specs[node].devices)
                     : cache_.lookup(spec);
  if (!profile.has_value()) return Unexpected{profile.error()};
  return Resolved<CachedProfile>{*profile, cache_.stats().hits > hits_before};
}

Expected<Resolved<CachedDagProfile>> Planner::lookup_dag_profile(
    const dag::DagSpec& spec, std::uint32_t node) {
  const std::uint64_t hits_before = cache_.stats().hits;
  auto profile =
      heterogeneous()
          ? cache_.lookup_dag(spec, config_.node_specs[node].devices)
          : cache_.lookup_dag(spec);
  if (!profile.has_value()) return Unexpected{profile.error()};
  return Resolved<CachedDagProfile>{*profile,
                                    cache_.stats().hits > hits_before};
}

Expected<std::optional<PairInterference>> Planner::pack_fit(
    const Submission& incumbent, const CachedProfile& joiner,
    const workflow::WorkflowSpec& joiner_spec, std::uint32_t node) {
  using Fit = std::optional<PairInterference>;
  // A DAG incumbent owns both sockets under its plan; nothing packs
  // next to it.
  if (incumbent.dag != nullptr) return Fit{};
  auto incumbent_profile = lookup_profile(incumbent.spec, node);
  if (!incumbent_profile.has_value()) {
    return Unexpected{incumbent_profile.error()};
  }
  const CachedProfile& a = *incumbent_profile->profile;
  if (!colocation_compatible(a, joiner, config_.colocation)) {
    return Fit{};
  }
  auto pair = heterogeneous()
                  ? interference_.lookup(a, incumbent.spec, joiner,
                                         joiner_spec,
                                         config_.node_specs[node].devices)
                  : interference_.lookup(a, incumbent.spec, joiner,
                                         joiner_spec);
  if (!pair.has_value()) return Unexpected{pair.error()};
  if (!pair->feasible) return Fit{};
  return Fit{*pair};
}

SimDuration Planner::estimate_runtime(const Submission& next,
                                      const PlacementCandidate& c) const {
  if (next.dag != nullptr) {
    const CachedDagProfile* profile = c.dag_profile.get();
    // An unplaceable DAG still gets a step — the commit stage drops it
    // — and costs no node time.
    if (profile == nullptr || !profile->placeable()) return 0;
    return planned_fusion(config_, *profile) ? profile->fused_runtime_ns
                                             : profile->spread_runtime_ns;
  }
  if (c.profile == nullptr) return 0;  // capacity untracked fallback
  const core::DeploymentConfig chosen =
      planned_config(config_, *c.profile, c.flip_placement);
  const SimDuration runtime = c.profile->runtime_ns[config_index(chosen)];
  return c.packs ? interference_scaled(runtime, c.factor) : runtime;
}

Expected<std::vector<PlacementCandidate>> Planner::enumerate(
    const Fleet& fleet, const Submission& next, SimTime now,
    const std::vector<bool>& consumed, bool lookahead) {
  std::vector<PlacementCandidate> out;
  std::vector<std::uint32_t> idle;
  fleet.idle_nodes(now, idle);
  if (!consumed.empty()) {
    std::erase_if(idle, [&](std::uint32_t i) { return consumed[i]; });
  }
  const bool first_fit = config_.policy == PlacementPolicy::kFirstFit;
  const auto solo_load = [&](std::uint32_t i) -> std::uint64_t {
    return first_fit ? 0 : static_cast<std::uint64_t>(fleet.node(i).busy_ns);
  };

  // Only pair work has a policy-specific enumeration; DAGs take the
  // plain solo path at the end.
  const bool pair = next.dag == nullptr;

  if (pair && config_.policy == PlacementPolicy::kColocationAware) {
    // The candidate's class profile is needed before commit: pair
    // compatibility and the interference charge depend on it. On a
    // homogeneous fleet it is node-independent and resolved once up
    // front — before the idle scan, because the lookup order (hence
    // the profile cache's LRU state and hit counters) is part of the
    // window-1 equivalence contract. Heterogeneous fleets resolve per
    // candidate node.
    Resolved<CachedProfile> head;
    if (!heterogeneous()) {
      auto profile = lookup_profile(next.spec, 0);
      if (!profile.has_value()) return Unexpected{profile.error()};
      head = std::move(*profile);
    }

    // Preference 1: an empty node (least-loaded) — solo running is
    // always at least as fast as packing on the same backend.
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.load = solo_load(i);
      c.profile = head.profile;
      c.cache_hit = head.cache_hit;
      if (lookahead) {
        if (heterogeneous()) {
          const Status resolved = resolve(next, c);
          if (!resolved.has_value()) return Unexpected{resolved.error()};
        }
        c.estimate_ns = estimate_runtime(next, c);
      }
      out.push_back(std::move(c));
    }
    // The legacy greedy never considered packs while any node was idle;
    // preserved exactly at window 1 (no incumbent lookups happen). A
    // lookahead window keeps both options: a pack on a fast backend can
    // beat a solo slot on a slow one.
    if (!out.empty() && !lookahead) return out;

    // Preference 2: pack next to a compatible sole incumbent; the pair
    // with the least combined measured slowdown wins (tier 1, so any
    // solo candidate still beats every pack at window 1).
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      if (!consumed.empty() && consumed[i]) continue;
      const auto target = fleet.pack_slot(i, now);
      if (!target.has_value()) continue;
      PlacementCandidate c;
      c.ref = SlotRef{i, *target};
      c.profile = head.profile;
      c.cache_hit = head.cache_hit;
      if (heterogeneous()) {
        // The candidate's profile on *this* node's backend.
        const Status resolved = resolve(next, c);
        if (!resolved.has_value()) return Unexpected{resolved.error()};
      }
      const RunningTask* incumbent =
          fleet.running(SlotRef{i, *fleet.sole_tenant_slot(i)});
      auto fit = pack_fit(incumbent->submission, *c.profile, next.spec, i);
      if (!fit.has_value()) return Unexpected{fit.error()};
      if (!fit->has_value()) continue;
      const PairInterference& measured = **fit;
      c.packs = true;
      c.factor = measured.slowdown_b;
      c.incumbent_factor = measured.slowdown_a;
      c.tier = 1;
      c.cost = measured.slowdown_a + measured.slowdown_b;
      if (lookahead) c.estimate_ns = estimate_runtime(next, c);
      out.push_back(std::move(c));
    }
    return out;
  }

  if (pair && config_.policy == PlacementPolicy::kCapacityAware &&
      capacity_on()) {
    // Rank fully-idle nodes by fit tier, then least busy time:
    //   0 — lease fits the preferred socket outright;
    //   1 — fits the node's other socket (spill: run placement-flipped);
    //   2 — fits the preferred socket after evicting cold residue;
    //   3 — fits the other socket after eviction (spill + evict).
    const std::uint32_t preferred = channel_socket_of(config_.fixed_config);
    const std::uint32_t other = preferred ^ 1u;
    const capacity::ResidencyTracker& residency = fleet.residency();
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      const Status resolved = resolve(next, c);
      if (!resolved.has_value()) return Unexpected{resolved.error()};
      const Bytes lease = lease_for(config_.capacity,
                                    channel_volume(*c.profile, next.spec));
      if (residency.fits(i, preferred, lease)) {
        c.tier = 0;
      } else if (residency.fits(i, other, lease)) {
        c.tier = 1;
        c.flip_placement = true;
      } else if (residency.fits_after_eviction(i, preferred, lease)) {
        c.tier = 2;
      } else if (residency.fits_after_eviction(i, other, lease)) {
        c.tier = 3;
        c.flip_placement = true;
      } else {
        continue;
      }
      c.lease_bytes = lease;
      c.load = static_cast<std::uint64_t>(fleet.node(i).busy_ns);
      if (lookahead) c.estimate_ns = estimate_runtime(next, c);
      out.push_back(std::move(c));
    }
    if (!out.empty()) return out;
    // No pool can hold the lease even after eviction. If running work
    // will free capacity — or earlier steps of this window are about to
    // occupy nodes — wait for a completion; otherwise fall back to bare
    // least-loaded so a lease larger than any pool still makes progress
    // (charge_lease prices the thrash).
    bool any_consumed = false;
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      any_consumed = any_consumed || consumed[i];
    }
    if (fleet.any_task_active(now) || any_consumed) return out;
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.tier = 4;  // untracked fallback: no profile, lease sized at commit
      c.load = static_cast<std::uint64_t>(fleet.node(i).busy_ns);
      out.push_back(std::move(c));
    }
    return out;
  }

  if (pair && config_.policy == PlacementPolicy::kRecommenderAware &&
      heterogeneous()) {
    // Backend-aware routing: among fully-idle nodes, place the class on
    // the backend where its recommended configuration runs fastest —
    // e.g. a read-heavy class whose remote reads are the bottleneck on
    // Optane routes to a locality-free backend. Lowest node index
    // breaks runtime ties deterministically.
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      const Status resolved = resolve(next, c);
      if (!resolved.has_value()) return Unexpected{resolved.error()};
      // The recommended configuration's runtime (planned_config).
      const SimDuration runtime = estimate_runtime(next, c);
      c.load = static_cast<std::uint64_t>(runtime);
      if (lookahead) {
        c.estimate_ns = runtime;
      } else {
        // Window 1 deliberately leaves the profile unresolved on the
        // candidate: the legacy router returned only the node and the
        // commit stage re-resolved, so the cache traffic must match.
        c.profile = nullptr;
        c.cache_hit = false;
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  // Plain solo placement: kFirstFit, kLeastLoaded, homogeneous
  // kRecommenderAware, kCapacityAware without the capacity model, and
  // every DAG. No profile is needed to decide, so none is resolved at
  // window 1 (the commit stage, or finalize() for a DAG, does it). A
  // DAG's stages span both sockets regardless of plan, so only a
  // fully-idle node will do; kFirstFit keeps its index preference and
  // every other policy (kDagFusion included) places least-loaded.
  for (std::uint32_t i : idle) {
    PlacementCandidate c;
    c.ref = SlotRef{i, 0};
    c.load = solo_load(i);
    if (lookahead) {
      const Status resolved = resolve(next, c);
      if (!resolved.has_value()) return Unexpected{resolved.error()};
      c.estimate_ns = estimate_runtime(next, c);
    }
    out.push_back(std::move(c));
  }
  return out;
}

Status Planner::resolve(const Submission& next, PlacementCandidate& c) {
  if (next.dag != nullptr) {
    auto profile = lookup_dag_profile(*next.dag, c.ref.node);
    if (!profile.has_value()) return Unexpected{profile.error()};
    c.dag_profile = std::move(profile->profile);
    c.cache_hit = profile->cache_hit;
    return ok_status();
  }
  auto profile = lookup_profile(next.spec, c.ref.node);
  if (!profile.has_value()) return Unexpected{profile.error()};
  c.profile = std::move(profile->profile);
  c.cache_hit = profile->cache_hit;
  return ok_status();
}

Status Planner::finalize(const Submission& next,
                         PlacementCandidate& candidate) {
  // A DAG's profile, and on a heterogeneous co-location fleet the
  // winning solo node's profile (the pack path resolved its own during
  // enumeration).
  if (next.dag != nullptr ||
      (config_.policy == PlacementPolicy::kColocationAware &&
       heterogeneous() && !candidate.packs)) {
    return resolve(next, candidate);
  }
  return ok_status();
}

Expected<Plan> Planner::plan(const Fleet& fleet,
                             std::span<const Submission* const> window,
                             SimTime now) {
  PMEMFLOW_ASSERT(!window.empty());
  Plan plan;
  if (window.size() == 1) {
    // Greedy fast path: enumerate → score → finalize the single winner.
    // Byte-identical to the legacy one-at-a-time chooser, including the
    // profile-cache lookup order.
    const Submission& next = *window.front();
    auto candidates =
        enumerate(fleet, next, now, {}, /*lookahead=*/false);
    if (!candidates.has_value()) return Unexpected{candidates.error()};
    if (candidates->empty()) return plan;
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates->size(); ++i) {
      if (score_better((*candidates)[i], (*candidates)[best])) best = i;
    }
    PlacementCandidate chosen = std::move((*candidates)[best]);
    const Status finalized = finalize(next, chosen);
    if (!finalized.has_value()) return Unexpected{finalized.error()};
    plan.steps.push_back(PlannedStep{next.id, std::move(chosen)});
    return plan;
  }

  // Bounded lookahead: greedy min-estimated-finish insertion over the
  // window, strictly by priority group (every urgent entry is offered a
  // node before any normal entry gets one), dispatch order as the final
  // tie-break. It is not the greedy path for a one-entry window: it
  // ranks by estimate first and resolves every candidate's profile, so
  // a window of one always takes the greedy path above. The overlay
  // marks nodes taken by earlier steps of this plan; planned tenants
  // are never packed onto within the same window (their interference
  // would be a guess, not a measurement).
  std::vector<bool> consumed(fleet.size(), false);
  std::vector<bool> placed(window.size(), false);
  std::size_t group_begin = 0;
  while (group_begin < window.size()) {
    const Priority group = window[group_begin]->priority;
    std::size_t group_end = group_begin;
    while (group_end < window.size() &&
           window[group_end]->priority == group) {
      ++group_end;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      std::optional<std::size_t> best_entry;
      std::optional<PlacementCandidate> best_candidate;
      SimTime best_finish = 0;
      for (std::size_t e = group_begin; e < group_end; ++e) {
        if (placed[e]) continue;
        auto candidates = enumerate(fleet, *window[e], now, consumed,
                                    /*lookahead=*/true);
        if (!candidates.has_value()) return Unexpected{candidates.error()};
        std::optional<std::size_t> local;
        for (std::size_t i = 0; i < candidates->size(); ++i) {
          if (!local.has_value() ||
              estimate_better((*candidates)[i], (*candidates)[*local])) {
            local = i;
          }
        }
        if (!local.has_value()) continue;  // nothing for this entry yet
        PlacementCandidate& c = (*candidates)[*local];
        const SimTime finish = now + c.estimate_ns;
        // Strict < keeps the earliest window entry on finish ties.
        if (!best_entry.has_value() || finish < best_finish) {
          best_entry = e;
          best_candidate = std::move(c);
          best_finish = finish;
        }
      }
      if (best_entry.has_value()) {
        consumed[best_candidate->ref.node] = true;
        placed[*best_entry] = true;
        plan.steps.push_back(
            PlannedStep{window[*best_entry]->id, std::move(*best_candidate)});
        progress = true;
      }
    }
    group_begin = group_end;
  }
  return plan;
}

}  // namespace pmemflow::service
