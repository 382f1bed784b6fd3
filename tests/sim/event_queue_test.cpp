#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace pmemflow::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(30, [&] { fired.push_back(3); });
  queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });

  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    (void)when;
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    queue.pop().second();
  }
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, ReportsNextTime) {
  EventQueue queue;
  queue.schedule(42, [] {});
  queue.schedule(7, [] {});
  EXPECT_EQ(queue.next_time(), 7u);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(10, [&] { fired = true; });
  queue.schedule(20, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1u);

  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 20u);
  cb();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  queue.pop().second();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue queue;
  const EventId early = queue.schedule(1, [] {});
  queue.schedule(2, [] {});
  queue.cancel(early);
  EXPECT_EQ(queue.next_time(), 2u);
  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 2u);
  cb();
}

TEST(EventQueue, CancelThenNextTimeThroughConstRef) {
  // Regression: next_time() used to const_cast itself to shed cancelled
  // heap entries. The lazy-deletion scan is now genuinely const (the
  // heap is mutable); calling through a const reference must skip every
  // cancelled prefix entry and report the earliest *live* event.
  EventQueue queue;
  const EventId first = queue.schedule(1, [] {});
  const EventId second = queue.schedule(2, [] {});
  queue.schedule(3, [] {});
  EXPECT_TRUE(queue.cancel(first));
  EXPECT_TRUE(queue.cancel(second));

  const EventQueue& view = queue;
  EXPECT_EQ(view.next_time(), 3u);
  EXPECT_EQ(view.size(), 1u);
  // The answer is stable on repeated const calls and agrees with pop().
  EXPECT_EQ(view.next_time(), 3u);
  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 3u);
  cb();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue queue;
  std::vector<SimTime> fire_times;
  // Insert times in a scrambled deterministic pattern.
  for (SimTime t = 0; t < 1000; ++t) {
    const SimTime when = (t * 7919) % 1000;
    queue.schedule(when, [&fire_times, when] { fire_times.push_back(when); });
  }
  while (!queue.empty()) {
    queue.pop().second();
  }
  ASSERT_EQ(fire_times.size(), 1000u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
}

TEST(EventQueue, RescheduleMovesEventToNewTime) {
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });

  const EventId moved = queue.reschedule(id, 30);
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(queue.size(), 2u);

  std::vector<SimTime> times;
  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    times.push_back(when);
    cb();
  }
  // Fires exactly once, at the new time, after the untouched event.
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  EXPECT_EQ(times, (std::vector<SimTime>{20, 30}));
}

TEST(EventQueue, RescheduleCanMoveEarlier) {
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(30, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });
  ASSERT_TRUE(queue.reschedule(id, 5).valid());
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleOrdersAsFreshlyScheduled) {
  // Moving an event onto an occupied timestamp puts it behind events
  // already queued there — the FIFO determinism contract.
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(5, [&] { fired.push_back(1); });
  queue.schedule(10, [&] { fired.push_back(2); });
  ASSERT_TRUE(queue.reschedule(id, 10).valid());
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleInvalidatesTheOldId) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  const EventId moved = queue.reschedule(id, 20);
  ASSERT_TRUE(moved.valid());
  EXPECT_FALSE(queue.cancel(id));    // old handle is dead
  EXPECT_TRUE(queue.cancel(moved));  // new handle controls the event
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleDeadEventReturnsInvalid) {
  EventQueue queue;
  const EventId cancelled = queue.schedule(10, [] {});
  ASSERT_TRUE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.reschedule(cancelled, 20).valid());

  int fires = 0;
  const EventId fired = queue.schedule(5, [&] { ++fires; });
  queue.pop().second();
  EXPECT_FALSE(queue.reschedule(fired, 20).valid());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleChurnKeepsHeapBounded) {
  // Regression: lazy deletion never compacted, so a single event
  // rescheduled N times left N dead entries in the heap (FlowResource
  // does exactly this with its pending-completion event on every flow
  // add/complete). The heap must stay O(live), not O(total churn).
  EventQueue queue;
  EventId id = queue.schedule(1, [] {});
  for (SimTime t = 2; t <= 10000; ++t) {
    id = queue.reschedule(id, t);
    ASSERT_TRUE(id.valid());
  }
  EXPECT_EQ(queue.size(), 1u);
  // One live event: compaction triggers whenever dead entries exceed
  // live ones past the rebuild floor, so the heap never exceeds it.
  EXPECT_LE(queue.heap_size(), 64u);

  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 10000u);
  cb();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.heap_size(), 0u);
}

TEST(EventQueue, CancelChurnKeepsHeapBounded) {
  EventQueue queue;
  std::vector<int> fired;
  // A stable population of 100 live events, with 10k schedule+cancel
  // churn on top.
  std::vector<EventId> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(
        queue.schedule(static_cast<SimTime>(1000000 + i), [&fired, i] {
          fired.push_back(i);
        }));
  }
  for (int i = 0; i < 10000; ++i) {
    const EventId id = queue.schedule(static_cast<SimTime>(i), [] {});
    EXPECT_TRUE(queue.cancel(id));
  }
  EXPECT_EQ(queue.size(), 100u);
  // Dead entries can never exceed max(live, floor) after a mutation.
  EXPECT_LE(queue.heap_size(), 200u + 64u);

  while (!queue.empty()) queue.pop().second();
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CompactionPreservesOrderingAndLiveEvents) {
  // Interleave schedules, cancels, and reschedules so several
  // compactions fire mid-stream, then verify the surviving events pop
  // in exactly (time, insertion) order.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const int tag = round * 20 + i;
      ids.push_back(queue.schedule(
          static_cast<SimTime>((tag * 7919) % 500 + 1000),
          [&fired, tag] { fired.push_back(tag); }));
    }
    // Kill three quarters of this round's events; reschedule one.
    for (int i = 0; i < 20; ++i) {
      const std::size_t at = ids.size() - 20 + static_cast<std::size_t>(i);
      if (i % 4 != 0) {
        EXPECT_TRUE(queue.cancel(ids[at]));
      } else if (i == 0) {
        ids[at] = queue.reschedule(ids[at], 2000);
        ASSERT_TRUE(ids[at].valid());
      }
    }
  }
  EXPECT_EQ(queue.size(), 250u);  // 5 survivors per round
  EXPECT_LE(queue.heap_size(), 2 * 250u + 64u);

  SimTime last = 0;
  std::size_t popped = 0;
  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    EXPECT_GE(when, last);
    last = when;
    cb();
    ++popped;
  }
  EXPECT_EQ(popped, 250u);
  EXPECT_EQ(fired.size(), 250u);
}

TEST(EventQueue, StaleHandlesNeverReachTheSlotsNewEvent) {
  // Handles index slots that the queue recycles: once an event fires
  // or is cancelled, a later event may take its slot. The old handle
  // must then match nothing, and the new event must still fire.
  EventQueue queue;
  const EventId fired = queue.schedule(1, [] {});
  queue.pop().second();
  const EventId cancelled = queue.schedule(2, [] {});
  ASSERT_TRUE(queue.cancel(cancelled));

  int fires = 0;
  const EventId reused = queue.schedule(3, [&] { ++fires; });
  // One slot, three occupants: the handles share it but not a sequence.
  EXPECT_EQ(reused.slot, fired.slot);
  EXPECT_EQ(reused.slot, cancelled.slot);
  EXPECT_NE(reused, fired);
  EXPECT_NE(reused, cancelled);

  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.reschedule(fired, 10).valid());
  EXPECT_FALSE(queue.reschedule(cancelled, 10).valid());
  EXPECT_FALSE(queue.cancel(EventId{}));
  EXPECT_FALSE(queue.reschedule(EventId{}, 10).valid());
  EXPECT_EQ(queue.size(), 1u);

  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 3u);
  cb();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(reused));
}

TEST(EventQueue, RandomChurnMatchesAnOrderedSetReference) {
  // 10k seeded schedule / cancel / reschedule / pop operations against
  // a reference kept as an ordered set of (when, insertion order). Both
  // must agree on every liveness answer and on the full pop order, and
  // the heap must keep its compaction bound.
  using Key = std::pair<SimTime, std::uint64_t>;
  EventQueue queue;
  std::set<Key> reference;
  std::map<std::uint64_t, Key> key_of_tag;  // live tag -> reference key
  std::vector<std::pair<EventId, std::uint64_t>> handles;  // (id, tag)
  std::uint64_t next_order = 0;
  std::uint64_t next_tag = 0;
  std::uint64_t fired_tag = 0;
  Xoshiro256 rng(0x636875726eULL);

  // The compaction bound holds after every cancel and reschedule (a pop
  // may leave dead entries in the majority until the next mutation).
  auto check_bound = [&](int op) {
    EXPECT_LE(queue.heap_size(), std::max<std::size_t>(2 * queue.size(), 64))
        << "op " << op;
  };
  auto schedule = [&](SimTime when) {
    const std::uint64_t tag = next_tag++;
    const Key key{when, next_order++};
    handles.emplace_back(
        queue.schedule(when, [&fired_tag, tag] { fired_tag = tag; }), tag);
    reference.insert(key);
    key_of_tag[tag] = key;
  };

  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t choice = rng.below(8);
    const SimTime when = rng.below(500);
    if (choice < 3 || handles.empty()) {
      schedule(when);
    } else if (choice < 5) {
      // Cancel any handle ever issued: live, fired, cancelled or moved.
      const auto& [id, tag] = handles[rng.below(handles.size())];
      const auto live = key_of_tag.find(tag);
      EXPECT_EQ(queue.cancel(id), live != key_of_tag.end()) << "op " << op;
      if (live != key_of_tag.end()) {
        reference.erase(live->second);
        key_of_tag.erase(live);
        check_bound(op);
      }
    } else if (choice < 7) {
      auto& [id, tag] = handles[rng.below(handles.size())];
      const auto live = key_of_tag.find(tag);
      const EventId moved = queue.reschedule(id, when);
      EXPECT_EQ(moved.valid(), live != key_of_tag.end()) << "op " << op;
      if (live != key_of_tag.end()) {
        reference.erase(live->second);
        live->second = Key{when, next_order++};
        reference.insert(live->second);
        id = moved;
        check_bound(op);
      }
    } else if (!reference.empty()) {
      const Key expected = *reference.begin();
      EXPECT_EQ(queue.next_time(), expected.first) << "op " << op;
      auto [at, cb] = queue.pop();
      cb();
      EXPECT_EQ(at, expected.first) << "op " << op;
      EXPECT_EQ(key_of_tag.at(fired_tag), expected) << "op " << op;
      reference.erase(reference.begin());
      key_of_tag.erase(fired_tag);
    }
    ASSERT_EQ(queue.size(), reference.size()) << "op " << op;
  }

  while (!reference.empty()) {
    auto [at, cb] = queue.pop();
    cb();
    EXPECT_EQ(at, reference.begin()->first);
    EXPECT_EQ(key_of_tag.at(fired_tag), *reference.begin());
    reference.erase(reference.begin());
    key_of_tag.erase(fired_tag);
  }
  EXPECT_TRUE(queue.empty());
  // Every handle is now stale.
  for (const auto& [id, tag] : handles) EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue queue;
  EXPECT_DEATH((void)queue.pop(), "empty");
}

}  // namespace
}  // namespace pmemflow::sim
