// The join memo (§4.3, DESIGN.md §3 "Merge memo"): merge answers keyed by
// the interned ids of the two payloads, consulted before the constraint
// oracle.
//
// ConstraintOracle::MergeAndCheck is a pure function of its two payloads,
// so a repeated (a, b) merge may reuse the first answer. With payloads
// interned as dense ids, a repeat costs one hash probe: no deserialize,
// append, serialize, oracle memo lock or compact, and no allocation.
//
// Determinism: ids are handed out only in the engine's serial steps (pair
// load, and integration in shard order), and the engine's memo is frozen
// while a round's shards run. Each shard keeps its own misses of the round
// in front of the frozen memo, and integration folds them in shard order.
// Ids, memo contents and hit counts therefore depend on the shard count
// only, never on the worker count or the steal policy.
#ifndef GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
#define GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_

#include <cstdint>
#include <vector>

#include "src/graph/constraint_oracle.h"
#include "src/support/flat_hash.h"

namespace grapple {

// Append-only table of distinct payloads: bytes -> dense 32-bit id.
class PayloadTable {
 public:
  // Id of the `len` bytes at `data`, interned when new. Bytes are compared
  // on every hash match, so a hash collision costs a comparison, never a
  // wrong id. Not thread-safe; reading ids is, while nothing interns.
  uint32_t Intern(const uint8_t* data, size_t len);

  const uint8_t* data(uint32_t id) const { return bytes_.data() + spans_[id].offset; }
  uint32_t length(uint32_t id) const { return spans_[id].length; }
  // Distinct payloads held.
  size_t size() const { return spans_.size(); }
  // Drops every payload and frees the table's memory.
  void Clear();

 private:
  struct Span {
    uint64_t offset;
    uint32_t length;
    uint32_t next;  // 1 + the previous id with the same hash; 0 ends the chain
  };
  std::vector<uint8_t> bytes_;
  std::vector<Span> spans_;
  FlatHashMap64 heads_;  // payload hash -> 1 + the newest id with that hash
};

// (id_a, id_b) -> result id, or kUnsat for an infeasible merge. Holds at
// most `capacity` entries: once full it stops inserting, and the engine
// clears it (with the payload table) before its next pair.
class MergeMemo {
 public:
  static constexpr uint32_t kUnsat = UINT32_MAX;

  explicit MergeMemo(size_t capacity) : capacity_(capacity) {}

  static uint64_t Key(uint32_t a, uint32_t b) { return (uint64_t{a} << 32) | b; }

  // The answer recorded for `key`, or nullptr. Read-only, so every shard
  // may probe at once while nothing inserts.
  const uint32_t* Find(uint64_t key) const { return map_.Find(key); }
  void Insert(uint64_t key, uint32_t result);
  size_t size() const { return map_.size(); }
  bool full() const { return map_.size() >= capacity_; }
  // Drops every answer and frees the memo's memory.
  void Clear() { map_ = FlatHashMap64(); }

 private:
  size_t capacity_;
  FlatHashMap64 map_;
};

// One join shard's merges for one round. A merge probes the frozen memo,
// then this shard's own misses of the round, and only then asks the
// oracle. The oracle's results wait in a shard-local arena until FoldInto
// interns them.
class ShardMerges {
 public:
  struct Answer {
    bool feasible = false;
    // The result payload: a PayloadTable id when `interned`, otherwise an
    // index into this shard's misses (see InternedId).
    bool interned = false;
    uint32_t payload = 0;
  };

  // A null `memo` turns memoization off: every merge asks the oracle.
  ShardMerges(const MergeMemo* memo, const PayloadTable* payloads, ConstraintOracle* oracle)
      : memo_(memo), payloads_(payloads), oracle_(oracle) {}

  Answer Merge(uint32_t a, uint32_t b);

  // Merges answered without the oracle.
  uint64_t memo_hits() const { return memo_hits_; }

  // Serial, once the round's shards are done: interns the feasible misses'
  // payloads in miss order and records every miss in `memo` (if any).
  void FoldInto(MergeMemo* memo, PayloadTable* payloads);
  // The id a feasible miss's payload was interned under by FoldInto.
  uint32_t InternedId(uint32_t miss) const { return misses_[miss].id; }

 private:
  struct Miss {
    uint64_t key;
    uint32_t offset;  // payload span in arena_
    uint32_t length;
    bool feasible;
    uint32_t id;  // set by FoldInto
  };

  const MergeMemo* memo_;
  const PayloadTable* payloads_;
  ConstraintOracle* oracle_;
  std::vector<Miss> misses_;
  std::vector<uint8_t> arena_;
  FlatHashMap64 round_;  // key -> index in misses_
  uint64_t memo_hits_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
