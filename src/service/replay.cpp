#include "service/replay.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "dag/spec.hpp"

namespace pmemflow::service {
namespace {

/// Floor for retry-after hints when the fleet is about to free anyway:
/// a client cannot usefully spin faster than this.
constexpr SimDuration kMinRetryNs = 1 * kMillisecond;

std::uint32_t tenants_for(const ServiceConfig& config) {
  if (config.policy != PlacementPolicy::kColocationAware) return 1;
  return std::clamp<std::uint32_t>(config.colocation.tenants_per_node, 1,
                                   Fleet::kMaxTenantsPerNode);
}

}  // namespace

Replay::Replay(const ServiceConfig& config, ProfileCache& cache,
               InterferenceTable& interference)
    : config_(config),
      planner_(config, cache, interference),
      fleet_(config.nodes, tenants_for(config)),
      queue_(config.queue_capacity, config.defer_watermark) {
  if (config.capacity.enabled()) {
    // Per-(node, socket) pool sizes: the fleet-wide default, overridden
    // by any node whose DeviceSpec carries its own capacity
    // (heterogeneous DIMM populations).
    std::vector<std::vector<Bytes>> capacities(
        config.nodes,
        std::vector<Bytes>(kSocketsPerNode, config.capacity.pmem_per_socket));
    for (std::uint32_t n = 0; n < config.node_specs.size(); ++n) {
      for (std::uint32_t s = 0; s < kSocketsPerNode; ++s) {
        capacities[n][s] =
            config.node_specs[n]
                .devices.for_socket(static_cast<topo::SocketId>(s))
                .capacity_or(config.capacity.pmem_per_socket);
      }
    }
    fleet_.init_residency(std::move(capacities));
  }
}

std::string Replay::track_name(SlotRef ref) const {
  return fleet_.tenants_per_node() > 1
             ? format("node-%u.%u", ref.node, ref.slot)
             : format("node-%u", ref.node);
}

void Replay::run(std::span<const Submission> stream,
                 std::span<const std::uint32_t> order) {
  stream_ = stream;
  auto next = order.begin();
  while (!failure_.has_value() && (next != order.end() || !events_.empty())) {
    if (next != order.end() &&
        (events_.empty() ||
         stream[*next].arrival_ns <= events_.next_time())) {
      arrive(*next, 0, stream[*next].arrival_ns);
      ++next;
    } else {
      auto [time, callback] = events_.pop();
      now_ = time;
      callback();
    }
    ++des_events_;
  }
}

std::vector<CompletionRecord> Replay::take_completions() {
  return std::move(completions_);
}

void Replay::arrive(std::uint32_t index, std::uint32_t attempt,
                    SimTime now) {
  if (failure_.has_value()) return;
  const Submission& submission = stream_[index];
  if (queue_.classify(submission.priority) == AdmissionVerdict::kAdmitted) {
    queue_.submit(submission, 0);
    dispatch(now);
    return;
  }
  // Only a turned-away submission needs the retry-after hint (a fleet scan).
  const SimTime earliest_free = fleet_.earliest_free_ns();
  const SimDuration retry_after =
      std::max(earliest_free > now ? earliest_free - now : SimDuration{0},
               kMinRetryNs);
  const AdmissionDecision decision = queue_.submit(submission, retry_after);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        "service",
        format("%s #%llu", to_string(decision.verdict),
               static_cast<unsigned long long>(submission.id)),
        now);
  }
  // Deferred and rejected submissions share one retry budget:
  // retry_after_ns is exactly the advisory resubmit hint a real client
  // would honor, so the service honors it itself. Work that exhausts
  // the budget is accounted as dropped — the invariant is
  // completed + dropped == submissions.
  if (attempt < config_.max_retries) {
    ++retries_;
    events_.schedule(now + decision.retry_after_ns, [this, index, attempt] {
      arrive(index, attempt + 1, now_);
    });
  } else {
    ++dropped_;
  }
  dispatch(now);
}

void Replay::dispatch(SimTime now) {
  while (!failure_.has_value() && !queue_.empty()) {
    // Stage 1+2 (candidates + scoring) live in the planner; the window
    // is the first k queued submissions in dispatch order.
    const auto window = queue_.window(
        std::max<std::uint32_t>(1, config_.planner.window));
    ++plans_;
    auto plan = planner_.plan(fleet_, window, now);
    if (!plan.has_value()) {
      failure_ = plan.error();
      return;
    }
    if (plan->steps.empty()) {
      maybe_preempt(now);
      return;
    }
    for (const PlannedStep& step : plan->steps) {
      commit_step(step, now);
      if (failure_.has_value()) return;
    }
  }
}

void Replay::commit_step(const PlannedStep& step, SimTime now) {
  Submission submission = queue_.take(step.id);
  const PlacementCandidate& choice = step.candidate;

  if (submission.dag != nullptr && !choice.dag_profile->placeable()) {
    // No socket assignment fits this DAG's per-socket core demand on
    // any plan: the node shape, not transient load, is the blocker, so
    // retrying cannot help. Count it dropped (the completed + dropped
    // == submissions invariant holds) instead of asserting in the
    // fleet's slot accounting.
    ++dropped_;
    if (config_.tracer != nullptr) {
      config_.tracer->instant(
          "service",
          format("unplaceable #%llu",
                 static_cast<unsigned long long>(submission.id)),
          now);
    }
    return;
  }

  // A DAG never packs and is never checkpointed (maybe_preempt skips
  // DAG victims), so it always reaches start_fresh below.
  if (choice.packs) {
    // Charge the incumbent its measured slowdown before the joiner
    // starts: settle its solo-rate progress, stretch the rest.
    const SlotRef inc{choice.ref.node,
                      *fleet_.sole_tenant_slot(choice.ref.node)};
    ++fleet_.task_at(inc)->record.colocations;
    apply_interference(inc, now, choice.incumbent_factor);
    ++colocations_;
  }

  auto checkpointed = checkpoints_.find(submission.id);
  if (checkpointed != checkpoints_.end()) {
    ResumeState state = std::move(checkpointed->second);
    checkpoints_.erase(checkpointed);
    resume_checkpointed(choice, std::move(submission), std::move(state), now);
  } else {
    start_fresh(choice, std::move(submission), now);
  }
}

SimDuration Replay::charge_lease(RunningTask& task, std::uint32_t node,
                                 std::uint32_t socket, Bytes lease) {
  capacity::ResidencyTracker& residency = fleet_.residency();
  SimDuration overhead = 0;
  if (!residency.fits(node, socket, lease)) {
    // Make room by evicting cold finished-channel residue oldest-first;
    // the reclaim is a device rewrite charged as dispatch overhead.
    const Bytes evicted = residency.evict_cold(node, socket, lease);
    overhead += capacity::gc_drain_ns(evicted, config_.capacity.retention);
  }
  if (!residency.fits(node, socket, lease)) {
    // The lease exceeds even the emptied pool: the channel thrashes,
    // rewriting its overflow every iteration. Charge that churn and
    // clamp the lease so the pool booking stays consistent.
    const capacity::CapacityPool& pool = residency.pool(node, socket);
    const Bytes overflow = lease - pool.free();
    overhead += capacity::gc_drain_ns(overflow, config_.capacity.retention) *
                task.iterations;
    lease = pool.free();
  }
  if (lease > 0) {
    const Status acquired = residency.acquire(node, socket, lease);
    PMEMFLOW_ASSERT_MSG(acquired.has_value(),
                        "capacity lease must fit after eviction/clamp");
  }
  task.lease_bytes = lease;
  task.lease_socket = socket;
  return overhead;
}

void Replay::apply_interference(SlotRef ref, SimTime now, double factor) {
  RunningTask* task = fleet_.task_at(ref);
  PMEMFLOW_ASSERT(task != nullptr);
  if (task->interference == factor) return;
  const SimTime old_finish = fleet_.node(ref.node).slots[ref.slot].free_at_ns;
  const SimTime new_finish = fleet_.retime(ref, now, factor);
  interference_delta_ns_ += static_cast<std::int64_t>(new_finish) -
                            static_cast<std::int64_t>(old_finish);
  task->record.finish_ns = new_finish;
  task->finish_event = events_.reschedule(task->finish_event, new_finish);
  PMEMFLOW_ASSERT_MSG(task->finish_event.valid(),
                      "re-timed a task whose finish event already fired");
}

void Replay::start_fresh(const PlacementCandidate& choice,
                         Submission submission, SimTime now) {
  // Pair work and DAGs differ only in where the runtime, the config or
  // label, the channel volume and the lease socket come from.
  RunningTask task;
  SimDuration runtime = 0;
  ChannelVolume volume;
  std::uint32_t lease_socket = 0;
  const char* dag_plan = nullptr;  // trace span suffix for a DAG
  if (submission.dag != nullptr) {
    const CachedDagProfile& profile = *choice.dag_profile;
    // placeable() was checked before the pop.
    const bool fuse = planned_fusion(config_, profile);
    const dag::FusionPlan& plan = fuse ? profile.fused : profile.spread;
    runtime = fuse ? profile.fused_runtime_ns : profile.spread_runtime_ns;
    volume = channel_volume(profile);
    // The lease lands on the plan's heaviest-channel socket.
    lease_socket = plan.lease_socket;
    dag_plan = fuse ? "dag-fused" : "dag-spread";
    task.record.label = submission.dag->label;
    // A chain's spread placement is exactly the P-LocR pair deployment;
    // the record keeps the fleet's fixed config as the closest Table I
    // description (dag/ephemeral_edges carry the real placement).
    task.record.config = config_.fixed_config;
    task.record.cache_hit = choice.cache_hit;
    task.record.best_runtime_ns = profile.best_runtime_ns();
    task.record.dag = true;
    task.record.ephemeral_edges =
        static_cast<std::uint32_t>(plan.ephemeral_edges);
  } else {
    Resolved<CachedProfile> resolved{choice.profile, choice.cache_hit};
    if (resolved.profile == nullptr) {
      // The planner only resolves profiles where the *placement* needed
      // one; bare steps resolve here, at commit, exactly like the legacy
      // dispatch did.
      auto looked_up = planner_.lookup_profile(submission.spec,
                                               choice.ref.node);
      if (!looked_up.has_value()) {
        failure_ = looked_up.error();
        return;
      }
      resolved = std::move(*looked_up);
    }
    const CachedProfile& profile = *resolved.profile;
    const core::DeploymentConfig chosen =
        planned_config(config_, profile, choice.flip_placement);
    runtime = profile.runtime_ns[config_index(chosen)];
    volume = channel_volume(profile, submission.spec);
    lease_socket = channel_socket_of(chosen);
    task.record.label = submission.spec.label;
    task.record.config = chosen;
    task.record.cache_hit = resolved.cache_hit;
    task.record.best_runtime_ns = profile.best_runtime_ns();
  }

  const Bytes snapshot = volume.snapshot_bytes;
  const std::uint32_t iterations = volume.iterations;
  if (capacity_on() && config_.capacity.staging.enabled() && snapshot != 0 &&
      snapshot <= config_.capacity.staging.stage_bytes) {
    // An iteration's snapshot fits the DRAM staging tier: writes land
    // at DRAM rather than device write bandwidth and the drain overlaps
    // the next iteration's compute. The per-iteration saving is the
    // bandwidth delta, capped at half the runtime — staging cannot
    // erase the compute/read side of the pipeline.
    const SimDuration drain =
        transfer_time(snapshot, config_.capacity.staging.drain_write_bw);
    const SimDuration dram =
        transfer_time(snapshot, config_.capacity.staging.dram_write_bw);
    SimDuration saving = drain > dram ? (drain - dram) * iterations : 0;
    saving = std::min(saving, runtime / 2);
    runtime -= saving;
    stage_hits_ += iterations;
  }

  task.record.id = submission.id;
  task.record.priority = submission.priority;
  task.record.node = choice.ref.node;
  task.record.slot = choice.ref.slot;
  task.record.arrival_ns = submission.arrival_ns;
  task.record.start_ns = now;
  task.record.config_runtime_ns = runtime;
  task.remaining_ns = runtime;
  task.interference = choice.factor;
  if (choice.packs) ++task.record.colocations;
  task.snapshot_bytes_per_iteration = snapshot;
  task.iterations = iterations;

  SimDuration capacity_overhead = 0;
  if (capacity_on()) {
    // Every policy pays for residency once the model is on; only
    // kCapacityAware *places* with it. The lease was sized during
    // capacity-aware ranking; everything else sizes it here.
    const Bytes lease = choice.lease_bytes != 0
                            ? choice.lease_bytes
                            : lease_for(config_.capacity, volume);
    capacity_overhead =
        charge_lease(task, choice.ref.node, lease_socket, lease);
    const capacity::RetentionParams& retention = config_.capacity.retention;
    // Residue left cold at finish: without GC the whole version volume
    // lingers; with retain-k GC only the retained window does.
    task.cold_bytes =
        !retention.gc
            ? task.lease_bytes
            : (retention.enabled()
                   ? std::min(task.lease_bytes,
                              capacity::retained_bytes(snapshot, iterations,
                                                       retention))
                   : Bytes{0});
    task.gc_bytes =
        retention.gc
            ? capacity::gc_reclaimable_bytes(snapshot, iterations, retention)
            : Bytes{0};
  }
  task.segment_overhead_ns = capacity_overhead;
  task.submission = std::move(submission);

  if (config_.tracer != nullptr) {
    config_.tracer->begin(
        track_name(choice.ref),
        format("%s [%s]", task.record.label.c_str(),
               dag_plan != nullptr ? dag_plan
                                   : task.record.config.label().c_str()),
        now);
  }
  const SimDuration work_wall = interference_scaled(runtime, choice.factor);
  if (choice.packs) {
    interference_delta_ns_ += static_cast<std::int64_t>(work_wall - runtime);
  }
  launch(choice.ref, capacity_overhead + work_wall, std::move(task), now);
}

void Replay::resume_checkpointed(const PlacementCandidate& choice,
                                 Submission submission, ResumeState state,
                                 SimTime now) {
  // On a heterogeneous fleet the remaining solo work carries over
  // unscaled even when the resume lands on a different backend: a
  // checkpoint preserves progress, not a re-profile, and the restore /
  // migration legs use the fleet-wide CheckpointParams rates.
  RunningTask task = std::move(state.task);
  const SimDuration restore =
      transfer_time(state.snapshot_bytes, config_.checkpoint.restore_read_bw);
  SimDuration migration = 0;
  if (choice.ref.node != state.checkpoint_node) {
    migration =
        transfer_time(state.snapshot_bytes, config_.checkpoint.migration_bw);
    ++task.record.migrations;
  }
  const SimDuration overhead = restore + migration;
  task.record.restore_ns += overhead;
  task.record.node = choice.ref.node;
  task.record.slot = choice.ref.slot;
  // Re-charge the lease released at preemption (its size survived in
  // lease_bytes); the resume node may need an eviction first.
  SimDuration capacity_overhead = 0;
  if (capacity_on() && task.lease_bytes > 0) {
    capacity_overhead =
        charge_lease(task, choice.ref.node,
                     channel_socket_of(task.record.config), task.lease_bytes);
  }
  task.segment_overhead_ns = overhead + capacity_overhead;
  task.interference = choice.factor;
  if (choice.packs) ++task.record.colocations;
  task.submission = std::move(submission);

  if (config_.tracer != nullptr) {
    config_.tracer->begin(
        track_name(choice.ref),
        format("%s [resume%s]", task.record.label.c_str(),
               migration > 0 ? ", migrated" : ""),
        now);
  }
  const SimDuration work_wall =
      interference_scaled(task.remaining_ns, choice.factor);
  if (choice.packs) {
    interference_delta_ns_ +=
        static_cast<std::int64_t>(work_wall - task.remaining_ns);
  }
  launch(choice.ref, overhead + capacity_overhead + work_wall,
         std::move(task), now);
}

void Replay::launch(SlotRef ref, SimDuration busy_ns, RunningTask task,
                    SimTime now) {
  const SimTime finish = now + busy_ns;
  task.record.finish_ns = finish;  // provisional until the event fires
  // The callback reads the finish time from the slot, not a captured
  // value: a re-timed finish event must see the re-timed clock.
  task.finish_event =
      events_.schedule(finish, [this, ref] { on_finish(ref); });
  fleet_.start(ref, now, busy_ns, std::move(task));
}

void Replay::on_finish(SlotRef ref) {
  const SimTime finish = fleet_.node(ref.node).slots[ref.slot].free_at_ns;
  RunningTask task = fleet_.complete(ref);
  task.record.finish_ns = finish;
  // The final segment ran to completion: all remaining work executed.
  task.record.work_executed_ns += task.remaining_ns;
  task.remaining_ns = 0;
  if (config_.tracer != nullptr) {
    config_.tracer->end(track_name(ref), finish);
  }
  // A departing tenant releases its co-tenant back to solo speed.
  if (config_.policy == PlacementPolicy::kColocationAware) {
    if (const auto other = fleet_.sole_tenant_slot(ref.node)) {
      apply_interference(SlotRef{ref.node, *other}, finish, 1.0);
    }
  }
  if (capacity_on() && task.lease_bytes > 0) {
    // The working lease frees, but the retained residue stays cold on
    // the socket until GC or a later eviction reclaims it.
    capacity::ResidencyTracker& residency = fleet_.residency();
    const Bytes cold = std::min(task.cold_bytes, task.lease_bytes);
    if (task.lease_bytes > cold) {
      residency.release(ref.node, task.lease_socket, task.lease_bytes - cold);
    }
    if (cold > 0) {
      residency.add_cold(ref.node, task.lease_socket, task.record.id, cold,
                         finish);
    }
    if (task.gc_bytes > 0) residency.note_gc(task.gc_bytes);
    task.lease_bytes = 0;
  }
  completions_.push_back(std::move(task.record));
  dispatch(finish);
}

Expected<bool> Replay::frees_slot_for_head(SlotRef victim, SimTime now) {
  // Preempting only helps the urgent head if the victim's slot is
  // actually usable afterwards: the node must end up empty (modulo the
  // drain) or keep a co-tenant the head may pack with.
  const Submission& head = queue_.front();
  for (std::uint32_t s = 0; s < fleet_.tenants_per_node(); ++s) {
    if (s == victim.slot) continue;
    const SlotState& other = fleet_.node(victim.node).slots[s];
    if (other.running.has_value()) {
      // An urgent DAG needs the whole node.
      if (head.dag != nullptr) return false;
      auto joiner = planner_.lookup_profile(head.spec, victim.node);
      if (!joiner.has_value()) return Unexpected{joiner.error()};
      auto fit = planner_.pack_fit(other.running->submission,
                                   *joiner->profile, head.spec, victim.node);
      if (!fit.has_value()) return Unexpected{fit.error()};
      if (!fit->has_value()) return false;
    } else if (other.free_at_ns > now) {
      return false;  // another drain holds the mirrored sockets
    }
  }
  return true;
}

void Replay::maybe_preempt(SimTime now) {
  if (config_.preemption != PreemptionPolicy::kCheckpointRestore) return;
  if (queue_.empty()) return;
  if (queue_.front().priority != Priority::kUrgent) return;
  // One preemption (== one node already draining) per waiting urgent:
  // a second urgent behind the same head must not trigger a second
  // checkpoint for work the first drain will already absorb.
  if (queue_.count_at_least(Priority::kUrgent) <= urgent_reservations_) {
    return;
  }

  // With one tenant per node, maybe_preempt is only reached when every
  // slot is busy. Under co-location a slot can be free yet unusable
  // (incompatible incumbent); preemption cannot help there — the urgent
  // waits for a departure instead.
  const SimTime earliest_free = fleet_.earliest_free_ns();
  if (earliest_free <= now) return;
  const SimDuration wait_without = earliest_free - now;

  // Decision rule: preempting makes the urgent wait only for the
  // checkpoint drain, so it saves (wait_without - checkpoint). Displace
  // only when that saving exceeds the full checkpoint + restore cost
  // the fleet pays for it; among profitable victims take the cheapest,
  // lowest (node, slot) as the deterministic tiebreak.
  struct Candidate {
    SlotRef ref;
    Bytes snapshot_bytes;
    SimDuration checkpoint_ns;
    SimDuration cost_ns;
  };
  std::optional<Candidate> victim;
  for (std::uint32_t i = 0; i < fleet_.size(); ++i) {
    for (std::uint32_t s = 0; s < fleet_.tenants_per_node(); ++s) {
      const SlotRef ref{i, s};
      const RunningTask* task = fleet_.running(ref);
      if (task == nullptr) continue;  // free or already draining
      if (task->record.priority >= Priority::kUrgent) continue;
      // A DAG's in-flight state spans several channels on both sockets;
      // the single-snapshot checkpoint model does not cover it.
      if (task->submission.dag != nullptr) continue;
      if (config_.policy == PlacementPolicy::kColocationAware) {
        const Expected<bool> usable = frees_slot_for_head(ref, now);
        if (!usable.has_value()) {
          failure_ = usable.error();
          return;
        }
        if (!*usable) continue;
      }
      const SimDuration remaining = fleet_.remaining_work_at(ref, now);
      const Bytes snapshot = task->snapshot_bytes(remaining);
      const SimDuration checkpoint =
          transfer_time(snapshot, config_.checkpoint.checkpoint_write_bw);
      if (checkpoint >= wait_without) continue;  // saves no wait at all
      const SimDuration restore =
          transfer_time(snapshot, config_.checkpoint.restore_read_bw);
      const SimDuration cost = checkpoint + restore;
      if (wait_without - checkpoint <= cost) continue;
      if (!victim.has_value() || cost < victim->cost_ns) {
        victim = Candidate{ref, snapshot, checkpoint, cost};
      }
    }
  }
  if (!victim.has_value()) return;

  // A co-located victim's pack charge covered stretch for all of its
  // remaining work; the part it will now re-run solo elsewhere never
  // materializes, so refund it.
  if (const RunningTask* task = fleet_.running(victim->ref);
      task->interference > 1.0) {
    const SimDuration remaining = fleet_.remaining_work_at(victim->ref, now);
    interference_delta_ns_ -= static_cast<std::int64_t>(
        interference_scaled(remaining, task->interference) - remaining);
  }

  RunningTask task = fleet_.preempt(victim->ref, now, victim->checkpoint_ns);
  const bool cancelled = events_.cancel(task.finish_event);
  PMEMFLOW_ASSERT_MSG(cancelled, "victim finish event already fired");

  // The checkpoint drain moves the channel off PMEM: its lease frees
  // now and is re-charged at resume (lease_bytes keeps the size).
  if (capacity_on() && task.lease_bytes > 0) {
    fleet_.residency().release(victim->ref.node, task.lease_socket,
                               task.lease_bytes);
  }

  // The departing victim releases its co-tenant back to solo speed.
  if (config_.policy == PlacementPolicy::kColocationAware) {
    if (const auto other = fleet_.sole_tenant_slot(victim->ref.node)) {
      apply_interference(SlotRef{victim->ref.node, *other}, now, 1.0);
    }
  }

  if (config_.tracer != nullptr) {
    const std::string track = track_name(victim->ref);
    config_.tracer->end(track, now);  // victim's segment ends here
    config_.tracer->begin(track,
                          format("ckpt %s", task.record.label.c_str()), now);
    config_.tracer->end(track, now + victim->checkpoint_ns);
    config_.tracer->instant(
        "service",
        format("preempt #%llu",
               static_cast<unsigned long long>(task.submission.id)),
        now);
  }

  Submission requeue = std::move(task.submission);
  checkpoints_.emplace(
      requeue.id,
      ResumeState{victim->snapshot_bytes, victim->ref.node, std::move(task)});
  queue_.reinstate(std::move(requeue));

  ++urgent_reservations_;
  const SimTime drain_done = now + victim->checkpoint_ns;
  events_.schedule(drain_done, [this, drain_done] {
    PMEMFLOW_ASSERT(urgent_reservations_ > 0);
    --urgent_reservations_;
    dispatch(drain_done);
  });
}

}  // namespace pmemflow::service
