// One replay of a submission stream: the per-run mutable state of the
// online scheduler.
//
// Replay holds everything OnlineScheduler::run() mutates while it
// drains one stream — event queue, fleet, submission queue,
// checkpoints, counters — and the caller's submission stream. Its
// Planner borrows the scheduler's ProfileCache and InterferenceTable,
// which persist across runs, and is the replay's one path to them:
// commit and preemption use the planner's lookups and pack check.
// Fresh pair and DAG work start through one start_fresh. Each run()
// builds one Replay, runs it over the stream and reads its results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "service/colocation.hpp"
#include "service/fleet.hpp"
#include "service/planner.hpp"
#include "service/profile_cache.hpp"
#include "service/scheduler.hpp"
#include "service/submission_queue.hpp"
#include "service/types.hpp"
#include "sim/event_queue.hpp"

namespace pmemflow::service {

class Replay {
 public:
  /// `cache` and `interference` must outlive the replay.
  Replay(const ServiceConfig& config, ProfileCache& cache,
         InterferenceTable& interference);
  /// Queued events capture `this`.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replays `stream`, in `order` (its indices sorted by (arrival,
  /// id)), to completion or a failure. A cursor over `order` merges with
  /// the event queue at pop time and wins time ties; retry events carry
  /// a stream index, so `stream` must outlive the replay.
  void run(std::span<const Submission> stream,
           std::span<const std::uint32_t> order);

  // -- Results --

  /// Completion records in finish-event order; leaves the replay empty.
  [[nodiscard]] std::vector<CompletionRecord> take_completions();

  [[nodiscard]] const std::optional<Error>& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] bool checkpoints_empty() const noexcept {
    return checkpoints_.empty();
  }
  [[nodiscard]] const SubmissionQueue& queue() const noexcept {
    return queue_;
  }
  [[nodiscard]] const Fleet& fleet() const noexcept { return fleet_; }
  [[nodiscard]] std::uint64_t des_events() const noexcept {
    return des_events_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  /// Planner invocations (each plans up to PlannerConfig::window steps).
  [[nodiscard]] std::uint64_t plans() const noexcept { return plans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t colocations() const noexcept {
    return colocations_;
  }
  [[nodiscard]] std::uint64_t stage_hits() const noexcept {
    return stage_hits_;
  }
  [[nodiscard]] std::int64_t interference_delta_ns() const noexcept {
    return interference_delta_ns_;
  }

 private:
  /// Checkpointed state of a preempted victim waiting in the queue.
  struct ResumeState {
    /// Volume drained at preemption; what a restore (and any migration
    /// leg) must stream back.
    Bytes snapshot_bytes = 0;
    /// Node holding the snapshot; resuming elsewhere pays the
    /// interconnect transfer.
    std::uint32_t checkpoint_node = 0;
    RunningTask task;
  };

  [[nodiscard]] bool capacity_on() const noexcept {
    return config_.capacity.enabled();
  }
  [[nodiscard]] std::string track_name(SlotRef ref) const;
  /// One arrival path for fresh submissions and deferred/rejected
  /// retries of `stream_[index]`.
  void arrive(std::uint32_t index, std::uint32_t attempt, SimTime now);
  /// Asks the planner for a window plan and commits its steps. The
  /// planner never mutates the fleet; everything below this line is the
  /// commit stage — the only code that starts work, charges leases, or
  /// preempts.
  void dispatch(SimTime now);
  /// Commits one planned step: pops the submission by id, charges the
  /// incumbent when packing, and starts fresh / resumes a checkpoint /
  /// drops an unplaceable DAG.
  void commit_step(const PlannedStep& step, SimTime now);
  SimDuration charge_lease(RunningTask& task, std::uint32_t node,
                           std::uint32_t socket, Bytes lease);
  void apply_interference(SlotRef ref, SimTime now, double factor);
  /// Whether preempting `victim` leaves the urgent queue head a usable
  /// slot: the node ends up empty (modulo the drain) or keeps a
  /// co-tenant the head may pack with (Planner::pack_fit).
  [[nodiscard]] Expected<bool> frees_slot_for_head(SlotRef victim,
                                                   SimTime now);
  void maybe_preempt(SimTime now);
  /// Starts a planned pair or DAG submission that holds no checkpoint.
  void start_fresh(const PlacementCandidate& choice, Submission submission,
                   SimTime now);
  void resume_checkpointed(const PlacementCandidate& choice,
                           Submission submission, ResumeState state,
                           SimTime now);
  void launch(SlotRef ref, SimDuration busy_ns, RunningTask task, SimTime now);
  void on_finish(SlotRef ref);

  const ServiceConfig& config_;
  /// Also the one path to the profile cache and interference table.
  Planner planner_;
  sim::EventQueue events_;
  std::span<const Submission> stream_;
  /// Time of the popped event; lets a retry callback fit inline.
  SimTime now_ = 0;
  Fleet fleet_;
  SubmissionQueue queue_;
  std::vector<CompletionRecord> completions_;
  /// Checkpoints awaiting resume, keyed by submission id.
  std::unordered_map<std::uint64_t, ResumeState> checkpoints_;
  /// Nodes currently draining a checkpoint on behalf of a waiting
  /// urgent submission; bounds preemptions to one per waiting urgent.
  std::uint64_t urgent_reservations_ = 0;
  std::uint64_t des_events_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t plans_ = 0;
  std::uint64_t dropped_ = 0;
  /// Pack placements performed.
  std::uint64_t colocations_ = 0;
  /// Iterations whose snapshot writes fit the DRAM staging tier.
  std::uint64_t stage_hits_ = 0;
  /// Net wall-clock added (pack) and returned (relax/settle) by
  /// interference charging; >= 0 over any completed pairing.
  std::int64_t interference_delta_ns_ = 0;
  std::optional<Error> failure_;
};

}  // namespace pmemflow::service
