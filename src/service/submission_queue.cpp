#include "service/submission_queue.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace pmemflow::service {

const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::kBatch: return "batch";
    case Priority::kNormal: return "normal";
    case Priority::kUrgent: return "urgent";
  }
  return "?";
}

const char* to_string(AdmissionVerdict verdict) noexcept {
  switch (verdict) {
    case AdmissionVerdict::kAdmitted: return "admitted";
    case AdmissionVerdict::kDeferred: return "deferred";
    case AdmissionVerdict::kRejected: return "rejected";
  }
  return "?";
}

SubmissionQueue::SubmissionQueue(std::size_t capacity, double defer_watermark)
    : capacity_(capacity) {
  PMEMFLOW_ASSERT(capacity >= 1);
  PMEMFLOW_ASSERT(defer_watermark >= 0.0 && defer_watermark <= 1.0);
  defer_threshold_ = std::min(
      capacity_, static_cast<std::size_t>(std::ceil(
                     defer_watermark * static_cast<double>(capacity_))));
}

AdmissionVerdict SubmissionQueue::classify(Priority priority) const noexcept {
  if (queue_.size() >= capacity_) return AdmissionVerdict::kRejected;
  if (priority == Priority::kBatch && queue_.size() >= defer_threshold_) {
    return AdmissionVerdict::kDeferred;
  }
  return AdmissionVerdict::kAdmitted;
}

AdmissionDecision SubmissionQueue::submit(const Submission& submission,
                                          SimDuration retry_after_ns) {
  AdmissionDecision decision;
  decision.verdict = classify(submission.priority);
  switch (decision.verdict) {
    case AdmissionVerdict::kAdmitted:
      ++stats_.admitted;
      queue_.insert(submission);
      stats_.high_water = std::max(stats_.high_water, queue_.size());
      break;
    case AdmissionVerdict::kDeferred:
      ++stats_.deferred;
      decision.retry_after_ns = retry_after_ns;
      break;
    case AdmissionVerdict::kRejected:
      ++stats_.rejected;
      decision.retry_after_ns = retry_after_ns;
      break;
  }
  return decision;
}

const Submission& SubmissionQueue::front() const {
  PMEMFLOW_ASSERT(!queue_.empty());
  return *queue_.begin();
}

Submission SubmissionQueue::pop() {
  PMEMFLOW_ASSERT(!queue_.empty());
  // extract() detaches the node so the Submission (spec strings, model
  // pointers) is *moved* out instead of deep-copied — pop() is the hot
  // path of the 100k-submission benches.
  auto node = queue_.extract(queue_.begin());
  return std::move(node.value());
}

std::vector<const Submission*> SubmissionQueue::window(std::size_t k) const {
  std::vector<const Submission*> out;
  out.reserve(std::min(k, queue_.size()));
  for (const Submission& submission : queue_) {
    if (out.size() >= k) break;
    out.push_back(&submission);
  }
  return out;
}

Submission SubmissionQueue::take(std::uint64_t id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    auto node = queue_.extract(it);
    return std::move(node.value());
  }
  PMEMFLOW_ASSERT_MSG(false, "take() of an id not in the queue");
  return Submission{};
}

void SubmissionQueue::reinstate(Submission submission) {
  // Preempted victims re-enter unconditionally: they already passed
  // admission once and their state (checkpoint) must not be lost, so
  // capacity and the defer watermark do not apply. Admission stats are
  // untouched — a victim is not a new submission.
  queue_.insert(std::move(submission));
  stats_.high_water = std::max(stats_.high_water, queue_.size());
}

std::size_t SubmissionQueue::count_at_least(Priority priority) const noexcept {
  // The multiset is ordered priority-descending, so qualifying entries
  // form a prefix.
  std::size_t count = 0;
  for (const Submission& submission : queue_) {
    if (submission.priority < priority) break;
    ++count;
  }
  return count;
}

}  // namespace pmemflow::service
