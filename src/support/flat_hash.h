// Flat open-addressing hash tables keyed by 64-bit hashes.
//
// Keys are hashes already (edge content and triple hashes), so a table
// stores the key itself — no node per entry, no side "used" array. Key 0
// marks an empty slot; a real key 0 is kept out of line. Slots are picked by
// Fibonacci hashing (the key's product with 2^64/phi, high bits) and probed
// linearly; the table doubles past 3/4 load. Iteration order is unspecified:
// callers that need a stable order sort what they read.
#ifndef GRAPPLE_SRC_SUPPORT_FLAT_HASH_H_
#define GRAPPLE_SRC_SUPPORT_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace grapple {

// One open-addressing table of 64-bit keys with a parallel value array;
// `Value = void` makes it a set (no value array at all).
template <typename Value>
class FlatHashTable64 {
  static constexpr bool kHasValues = !std::is_void_v<Value>;
  using Stored = std::conditional_t<kHasValues, Value, char>;  // char: never stored

 public:
  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  bool Contains(uint64_t key) const {
    if (key == 0) {
      return has_zero_;
    }
    return !keys_.empty() && keys_[Probe(key)] != 0;
  }

  // True when `key` was not present (a map's new value is Value{}).
  bool Insert(uint64_t key) {
    bool inserted;
    SlotFor(key, &inserted);
    return inserted;
  }

  // Value of `key`, inserted as Value{} when absent (like
  // std::map::operator[]). The reference is valid until the next insertion.
  template <typename V = Value, typename = std::enable_if_t<!std::is_void_v<V>>>
  V& operator[](uint64_t key) {
    bool inserted;
    size_t slot = SlotFor(key, &inserted);
    return slot == kZeroSlot ? zero_value_ : values_[slot];
  }

  // Value of `key`, or nullptr when absent. Const and allocation-free, so
  // any number of threads may look up at once while none inserts.
  template <typename V = Value, typename = std::enable_if_t<!std::is_void_v<V>>>
  const V* Find(uint64_t key) const {
    if (key == 0) {
      return has_zero_ ? &zero_value_ : nullptr;
    }
    if (keys_.empty()) {
      return nullptr;
    }
    size_t slot = Probe(key);
    return keys_[slot] != 0 ? &values_[slot] : nullptr;
  }

  void Reserve(size_t n) {
    size_t cap = CapacityFor(n);
    if (cap > keys_.size()) {
      Rehash(cap);
    }
  }

  // fn(key) for a set, fn(key, value) for a map; unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) {
      Visit(fn, 0, kZeroSlot);
    }
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      if (keys_[slot] != 0) {
        Visit(fn, keys_[slot], slot);
      }
    }
  }

 private:
  static constexpr size_t kZeroSlot = SIZE_MAX;

  template <typename Fn>
  void Visit(Fn& fn, uint64_t key, size_t slot) const {
    if constexpr (kHasValues) {
      fn(key, slot == kZeroSlot ? zero_value_ : values_[slot]);
    } else {
      fn(key);
    }
  }

  // Smallest power-of-two table (>= 16) that holds `n` keys under 3/4 load.
  static size_t CapacityFor(size_t n) {
    size_t cap = 16;
    while (n >= cap - cap / 4) {
      cap *= 2;
    }
    return cap;
  }

  // Slot holding `key`, or the empty slot where it would go.
  size_t Probe(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (keys_[slot] != 0 && keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  // Slot of `key` (kZeroSlot for key 0), inserting it when absent.
  size_t SlotFor(uint64_t key, bool* inserted) {
    if (key == 0) {
      *inserted = !has_zero_;
      has_zero_ = true;
      return kZeroSlot;
    }
    if (size_ + 1 >= keys_.size() - keys_.size() / 4) {
      Rehash(CapacityFor(size_ + 1));
    }
    size_t slot = Probe(key);
    *inserted = keys_[slot] == 0;
    if (*inserted) {
      keys_[slot] = key;
      ++size_;
    }
    return slot;
  }

  void Rehash(size_t cap) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<Stored> old_values = std::move(values_);
    keys_.assign(cap, 0);
    if constexpr (kHasValues) {
      values_.assign(cap, Value{});
    }
    shift_ = 64;
    for (size_t size = 1; size < cap; size *= 2) {
      --shift_;
    }
    for (size_t slot = 0; slot < old_keys.size(); ++slot) {
      if (old_keys[slot] != 0) {
        size_t to = Probe(old_keys[slot]);
        keys_[to] = old_keys[slot];
        if constexpr (kHasValues) {
          values_[to] = old_values[slot];
        }
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<Stored> values_;  // parallel to keys_; empty for a set
  int shift_ = 64;              // 64 - log2(keys_.size())
  size_t size_ = 0;             // keys in keys_ (the out-of-line zero key excluded)
  bool has_zero_ = false;
  Stored zero_value_{};
};

using FlatHashSet64 = FlatHashTable64<void>;
// uint64 -> uint32; keys and values in parallel arrays (12 bytes a slot).
using FlatHashMap64 = FlatHashTable64<uint32_t>;

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_FLAT_HASH_H_
