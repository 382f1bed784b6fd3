// Time-ordered event queue with O(log n) insert/pop and cancellation.
//
// Events at equal timestamps fire in insertion order (FIFO), which makes
// every simulation run fully deterministic. Callbacks live in a vector
// of slots recycled through a free list; a heap entry names its slot
// and the sequence number it was scheduled under, and it is live iff
// the slot still holds that sequence. Cancellation is therefore O(1)
// and lazy: a cancelled entry stays in the heap and is skipped when
// popped — but the backlog is bounded: when dead entries outnumber live
// ones the heap is compacted in one O(n) rebuild, so cancel/reschedule
// churn (e.g. a FlowResource rescheduling its completion on every
// arrival) keeps the heap O(live) instead of O(total events ever
// scheduled).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace pmemflow::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// A handle outlives its event harmlessly: once the event fires or is
/// cancelled its slot's sequence moves on, so the stale handle matches
/// nothing even after the slot is reused.
struct EventId {
  std::uint32_t slot = 0;
  /// Sequence number the event was scheduled under (0 = invalid; the
  /// queue numbers events from 1).
  std::uint64_t sequence = 0;

  [[nodiscard]] bool valid() const noexcept { return sequence != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Min-heap of (time, sequence) ordered callbacks.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` to fire at absolute time `when`.
  EventId schedule(SimTime when, Callback callback);

  /// Cancels a previously scheduled event. Returns false if the event
  /// already fired or was already cancelled.
  bool cancel(EventId id);

  /// Moves a live event to a new absolute time, returning its new id
  /// (the old id is dead). The event is ordered as if freshly scheduled
  /// at `when`: among equal timestamps it fires after events already
  /// queued there, keeping FIFO determinism. Returns an invalid id when
  /// the event already fired or was cancelled.
  EventId reschedule(EventId id, SimTime when);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (non-cancelled, not-yet-fired) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event's callback together
  /// with its timestamp; queue must not be empty.
  std::pair<SimTime, Callback> pop();

  /// Physical heap entries, live + dead (test hook: the compaction
  /// invariant is heap_size() <= max(2 * size(), compaction floor)).
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return heap_.size();
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;

    // std::push_heap/pop_heap build a max-heap; invert for
    // earliest-first, and break time ties by sequence for FIFO ordering.
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  struct Slot {
    Callback callback;
    /// Sequence of the event occupying the slot; 0 while the slot is
    /// free (no event is ever numbered 0).
    std::uint64_t sequence = 0;
  };

  [[nodiscard]] bool is_live(const Entry& entry) const noexcept {
    return slots_[entry.slot].sequence == entry.sequence;
  }
  /// True when `id` names the event currently occupying its slot.
  [[nodiscard]] bool is_live(EventId id) const noexcept {
    return id.valid() && id.slot < slots_.size() &&
           slots_[id.slot].sequence == id.sequence;
  }
  /// Returns a slot to the free list; every heap entry naming it dies.
  void release(std::uint32_t slot);

  void drop_dead_entries() const;
  /// Rebuilds the heap without dead entries once they outnumber live
  /// ones (and the heap is big enough for the rebuild to matter).
  void maybe_compact();

  // The heap is mutable so that next_time() can shed cancelled entries
  // without pretending to be non-const: dropping dead entries never
  // changes the observable queue state (live events and their order),
  // only the lazy-deletion backlog.
  mutable std::vector<Entry> heap_;
  /// Cancelled/rescheduled entries still sitting in heap_.
  mutable std::size_t dead_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace pmemflow::sim
