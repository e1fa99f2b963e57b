#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file lru.h
/// \brief A cost-budgeted least-recently-used map, the eviction engine
/// behind the multi-task serving registry.
///
/// Unlike a count-capped LRU, entries carry an explicit *cost* (bytes for
/// the registry) and eviction trims the least-recently-used tail until the
/// total cost fits the budget again. Evicted values are handed back to the
/// caller instead of being destroyed inside the cache, so owners holding
/// shared references can drain them gracefully (an in-flight serving
/// session must finish its requests, not crash).

namespace goggles {

/// \brief LRU map with a total-cost budget and an optional entry cap.
///
/// Not thread-safe; callers wrap it in their own lock (the registry holds
/// one mutex around every cache operation). `K` needs `std::hash` and
/// `operator==`.
template <typename K, typename V>
class LruCache {
 public:
  /// \brief One evicted entry, returned to the caller by Put().
  struct Evicted {
    K key;      ///< the evicted entry's key
    V value;    ///< the evicted value, moved out of the cache
    uint64_t cost = 0;  ///< the cost it was inserted with
  };

  /// \param cost_budget  maximum total cost, 0 = unlimited
  /// \param max_entries  maximum entry count, 0 = unlimited
  explicit LruCache(uint64_t cost_budget = 0, size_t max_entries = 0)
      : cost_budget_(cost_budget), max_entries_(max_entries) {}

  /// \brief Inserts or replaces `key`, marks it most-recently-used, then
  /// evicts least-recently-used entries until the budget and entry cap
  /// hold again. The just-inserted entry is never evicted, even when its
  /// cost alone exceeds the budget — a single oversized occupant beats an
  /// empty cache that can never serve.
  /// \return the displaced entries — a replaced same-key value first (if
  /// any), then budget evictions least-recently-used first. Values are
  /// always handed back, never destroyed inside the cache, so the caller
  /// controls where (e.g. outside its lock) they are released.
  std::vector<Evicted> Put(const K& key, V value, uint64_t cost) {
    std::vector<Evicted> evicted;
    auto it = index_.find(key);
    if (it != index_.end()) {
      Node& old = *it->second;
      total_cost_ -= old.cost;
      evicted.push_back(Evicted{old.key, std::move(old.value), old.cost});
      order_.erase(it->second);
      index_.erase(it);
    }
    order_.push_front(Node{key, std::move(value), cost});
    index_[key] = order_.begin();
    total_cost_ += cost;

    while (order_.size() > 1 &&
           ((cost_budget_ != 0 && total_cost_ > cost_budget_) ||
            (max_entries_ != 0 && order_.size() > max_entries_))) {
      Node& victim = order_.back();
      total_cost_ -= victim.cost;
      index_.erase(victim.key);
      evicted.push_back(Evicted{std::move(victim.key), std::move(victim.value),
                                victim.cost});
      order_.pop_back();
    }
    return evicted;
  }

  /// \brief Looks `key` up and marks it most-recently-used.
  /// \return pointer into the cache (invalidated by the next mutation), or
  /// nullptr when absent.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// \brief Removes `key`. \return true iff it was present.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    total_cost_ -= it->second->cost;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  /// \brief Calls `fn(key, value, cost)` for every entry, most-recently-
  /// used first. `fn` must not mutate the cache.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Node& node : order_) fn(node.key, node.value, node.cost);
  }

  /// \brief Number of resident entries.
  size_t size() const { return order_.size(); }
  /// \brief Sum of the resident entries' costs.
  uint64_t total_cost() const { return total_cost_; }
  /// \brief The configured cost budget (0 = unlimited).
  uint64_t cost_budget() const { return cost_budget_; }

 private:
  /// One resident entry in recency order.
  struct Node {
    K key;
    V value;
    uint64_t cost = 0;
  };

  uint64_t cost_budget_;
  size_t max_entries_;
  uint64_t total_cost_ = 0;
  std::list<Node> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<Node>::iterator> index_;
};

}  // namespace goggles
