// Lazy-deletion binary min-heap for victim ordering (LC's LRU-2, TAC's
// temperature order). A victim order needs three fast operations on the
// page-reference hot path — "reprioritize this entry", "what is the
// current minimum", "drop this entry" — and std::set pays a node
// allocation plus rebalancing pointer chases for each. The heap instead:
//
//   - Push on every (re)prioritization; the entry's previous key simply
//     becomes stale in place (no erase);
//   - PeekMin pops stale keys until the top is current, where "current"
//     is the caller's predicate (typically: the key equals the one its
//     entry would produce now — reference counters are monotonic, so a
//     key can never become current again once superseded);
//   - Compact() filters the stale backlog whenever it outgrows the live
//     set, keeping memory and push depth bounded (amortized O(1)).
//
// Selection is EXACTLY the std::set order: the minimum over current keys,
// with stale keys never current by construction. Keys are small POD
// tuples, contiguous in one vector — no per-node heap traffic at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace face {

template <typename Key>
class LazyMinHeap {
 public:
  /// Add `key` as the (new) priority of its entry. Any older key for the
  /// same entry just goes stale — never erase it.
  void Push(const Key& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Key>());
  }

  /// Smallest current key, discarding stale tops as a side effect;
  /// `is_current(key)` decides. Returns false if nothing current remains.
  template <typename IsCurrent>
  bool PeekMin(IsCurrent&& is_current, Key* out) {
    while (!heap_.empty()) {
      if (is_current(heap_.front())) {
        *out = heap_.front();
        return true;
      }
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Key>());
      heap_.pop_back();
    }
    return false;
  }

  /// Remove the top returned by the last PeekMin (the entry is going away;
  /// its key must not be served again).
  void PopMin() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Key>());
    heap_.pop_back();
  }

  /// Drop every key not accepted by `is_current` when the stale backlog
  /// outgrows `live` entries. Call occasionally (e.g. once per Push) with
  /// the owning index's size.
  template <typename IsCurrent>
  void MaybeCompact(size_t live, IsCurrent&& is_current) {
    if (heap_.size() < 4 * live + 16) return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [&](const Key& k) { return !is_current(k); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<Key>());
  }

  /// All keys (stale included), for ordered traversals: the caller
  /// copies/sorts/heapifies as needed.
  const std::vector<Key>& keys() const { return heap_; }

  /// Audit for owners whose entries each have one present key: true iff
  /// exactly `live` keys are current and no two are equal, i.e. every live
  /// entry's present key is in the heap exactly once.
  template <typename IsCurrent>
  bool CurrentKeysMatch(size_t live, IsCurrent&& is_current) const {
    std::vector<Key> current;
    for (const Key& k : heap_) {
      if (is_current(k)) current.push_back(k);
    }
    std::sort(current.begin(), current.end());
    return current.size() == live &&
           std::adjacent_find(current.begin(), current.end()) == current.end();
  }

  void Clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  std::vector<Key> heap_;  // min-heap via std::greater
};

}  // namespace face
