// Fixed-capacity least-recently-used cache.
//
// Grapple memoizes constraint-solving results keyed by the encoded path
// (§4.3, "Constraint Memoization"): before decoding and solving a constraint
// the engine probes this cache; hits skip both the ICFET walk and the SMT
// call. Table 4 of the paper measures the effect.
#ifndef GRAPPLE_SRC_SUPPORT_LRU_CACHE_H_
#define GRAPPLE_SRC_SUPPORT_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace grapple {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Returns the cached value and marks the entry most-recently-used.
  std::optional<Value> Get(const Key& key) {
    const Value* value = Find(key);
    if (value == nullptr) {
      return std::nullopt;
    }
    return *value;
  }

  // Like Get, but points at the cached value instead of copying it. The
  // pointer stays valid until the next Put or Clear.
  const Value* Find(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Inserts or overwrites; evicts the least-recently-used entry when full.
  void Put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (index_.size() >= capacity_) {
      auto& victim = order_.back();
      index_.erase(victim.first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  double HitRate() const {
    uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> order_;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator, Hash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_LRU_CACHE_H_
