#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmemflow::sim {

namespace {
/// Below this heap size a rebuild saves too little to bother; it also
/// keeps tiny queues from compacting on every other cancel.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventId EventQueue::schedule(SimTime when, Callback callback) {
  PMEMFLOW_ASSERT(callback != nullptr);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  slots_[slot] = Slot{std::move(callback), sequence};
  heap_.push_back(Entry{when, sequence, slot});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_;
  return EventId{slot, sequence};
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (!is_live(id)) return false;
  release(id.slot);
  ++dead_;  // the heap entry stays behind (lazy deletion)
  maybe_compact();
  return true;
}

EventId EventQueue::reschedule(EventId id, SimTime when) {
  if (!is_live(id)) return EventId{};
  // The callback keeps its slot; a fresh sequence kills the old heap
  // entry (lazy deletion) and orders the event as newly scheduled.
  const std::uint64_t sequence = next_sequence_++;
  slots_[id.slot].sequence = sequence;
  ++dead_;
  heap_.push_back(Entry{when, sequence, id.slot});
  std::push_heap(heap_.begin(), heap_.end());
  maybe_compact();
  return EventId{id.slot, sequence};
}

void EventQueue::drop_dead_entries() const {
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    PMEMFLOW_ASSERT(dead_ > 0);
    --dead_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactionFloor || dead_ <= live_) return;
  // Keep only live entries, then restore the heap invariant. Heap shape
  // does not affect pop order (the comparator is a strict total order:
  // sequence numbers are unique), so compaction preserves determinism.
  std::erase_if(heap_,
                [this](const Entry& entry) { return !is_live(entry); });
  std::make_heap(heap_.begin(), heap_.end());
  dead_ = 0;
}

SimTime EventQueue::next_time() const {
  drop_dead_entries();
  PMEMFLOW_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().when;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  drop_dead_entries();
  PMEMFLOW_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.pop_back();
  Callback callback = std::move(slots_[top.slot].callback);
  release(top.slot);
  return {top.when, std::move(callback)};
}

}  // namespace pmemflow::sim
