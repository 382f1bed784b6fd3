// Bounded, priority-ordered intake queue with admission control.
//
// The queue is the service's back-pressure mechanism: capacity is
// finite (a saturated fleet must not accumulate unbounded work), and
// admission degrades in two steps as it fills:
//
//   occupancy < watermark           — everything admitted;
//   watermark <= occupancy < full   — kBatch deferred, others admitted;
//   full                            — everything rejected.
//
// Dispatch order is (priority desc, arrival asc, id asc): urgent work
// jumps the line, equal-priority work is FIFO, and the id tiebreak
// keeps simultaneous arrivals deterministic.
#pragma once

#include <set>
#include <vector>

#include "service/types.hpp"

namespace pmemflow::service {

/// Cumulative admission statistics.
struct QueueStats {
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t rejected = 0;
  /// Largest queue occupancy ever observed.
  std::size_t high_water = 0;

  [[nodiscard]] std::uint64_t attempts() const noexcept {
    return admitted + deferred + rejected;
  }
};

class SubmissionQueue {
 public:
  /// `capacity` must be >= 1; `defer_watermark` is the occupancy
  /// fraction above which kBatch submissions are deferred.
  explicit SubmissionQueue(std::size_t capacity,
                           double defer_watermark = 0.75);

  /// Admission verdict for a submission of priority `priority` given
  /// current occupancy. Does not modify the queue.
  [[nodiscard]] AdmissionVerdict classify(Priority priority) const noexcept;

  /// Classifies and, when admitted, enqueues a copy. Stats are updated
  /// either way. The caller supplies `retry_after_ns` (typically: time
  /// until the fleet's next node frees) for non-admitted verdicts.
  AdmissionDecision submit(const Submission& submission,
                           SimDuration retry_after_ns);

  /// Highest-dispatch-priority submission; queue must not be empty.
  [[nodiscard]] const Submission& front() const;

  /// Removes and returns the front submission (moved, not copied).
  Submission pop();

  /// The first min(k, size) submissions in dispatch order — the
  /// planner's lookahead window. Pointers stay valid until the queue is
  /// next modified.
  [[nodiscard]] std::vector<const Submission*> window(std::size_t k) const;

  /// Removes and returns the queued submission with `id` (the planner
  /// commits window entries out of dispatch order). Asserts presence.
  Submission take(std::uint64_t id);

  /// Re-enqueues a preempted victim, bypassing admission control (no
  /// capacity check, no stats). Victims already passed admission once;
  /// dropping them would lose checkpointed work.
  void reinstate(Submission submission);

  /// Number of queued submissions with priority >= `priority`.
  [[nodiscard]] std::size_t count_at_least(Priority priority) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const QueueStats& stats() const noexcept { return stats_; }

 private:
  struct DispatchOrder {
    bool operator()(const Submission& a, const Submission& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.arrival_ns != b.arrival_ns) return a.arrival_ns < b.arrival_ns;
      return a.id < b.id;
    }
  };

  std::size_t capacity_;
  std::size_t defer_threshold_;
  std::multiset<Submission, DispatchOrder> queue_;
  QueueStats stats_;
};

}  // namespace pmemflow::service
