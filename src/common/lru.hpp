// Bounded map with least-recently-used eviction.
//
// A hash index over a recency list: find() and insert() are O(1), and a
// full map evicts its least recently used entry to make room. Iterators
// into the list stay valid across splices, so a hit only relinks one
// node.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"

namespace pmemflow {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  /// `capacity` must be >= 1.
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    PMEMFLOW_ASSERT(capacity >= 1);
  }

  /// The value stored under `key`, now marked most recently used; null
  /// when absent.
  [[nodiscard]] const Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key`, which must be absent, as the most
  /// recently used entry. A full map first evicts its least recently
  /// used entry; returns true when it did.
  bool insert(Key key, Value value) {
    const bool evict = index_.size() >= capacity_;
    if (evict) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    return evict;
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Order = std::list<std::pair<Key, Value>>;

  std::size_t capacity_;
  Order order_;  // front = most recently used
  std::unordered_map<Key, typename Order::iterator, Hash> index_;
};

}  // namespace pmemflow
