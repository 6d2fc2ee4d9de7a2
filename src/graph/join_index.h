// Label-indexed adjacency of a loaded partition pair, and the join scan that
// enumerates an edge's join partners through it (§4.3).
//
// The join of a frontier edge u -A-> v needs the edges at v whose label the
// grammar combines with A. Each vertex's out- and in-edges are grouped into
// one bucket per label, so the scan visits only the buckets whose label
// combines and never touches the rest of a dense hub's adjacency; a label
// without partners (Grammar::SecondPartners / FirstPartners) skips the
// vertex outright. Buckets are singly linked lists threaded through
// per-edge `next` arrays (no allocation per bucket); each list is ascending
// because edges are added in index order.
//
// Emission order is part of the contract: partners come out in ascending
// edge-index order across all matching buckets (a k-way merge), exactly the
// order of a scan over the vertex's full adjacency filtered by the grammar.
// The engine's integration order — and through it the per-triple variant
// cap, widening, partition bytes and provenance — depends on it.
#ifndef GRAPPLE_SRC_GRAPH_JOIN_INDEX_H_
#define GRAPPLE_SRC_GRAPH_JOIN_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/graph/edge.h"

namespace grapple {

class JoinIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Indexes edges whose endpoints lie in [lo1, hi1) or [lo2, hi2) (the two
  // loaded partitions' vertex intervals; equal when a partition is paired
  // with itself). `grammar` must outlive the index.
  JoinIndex(const Grammar* grammar, VertexId lo1, VertexId hi1, VertexId lo2, VertexId hi2);

  bool Owns(VertexId v) const {
    return (v >= lo1_ && v < hi1_) || (v >= lo2_ && v < hi2_);
  }

  // Registers edge `idx`, which must be the next index (0, 1, 2, ...). The
  // edge is filed under its source's out-buckets and its destination's
  // in-buckets, each only when that endpoint is owned (the scan looks only
  // at owned vertices).
  void Add(uint32_t idx, VertexId src, VertexId dst, Label label);

  // Per-thread cursor state for the scans below, which only read the index:
  // any number of Scans may run concurrently while no Add runs.
  class Scan {
   public:
    explicit Scan(const JoinIndex& index) : index_(index) {}

    // fn(idx2) for every edge v -B-> w with a rule `first B`, ascending.
    template <typename Fn>
    void Forward(VertexId v, Label first, Fn&& fn) {
      const std::vector<Label>& seconds = index_.grammar_->SecondPartners(first);
      if (!index_.Owns(v) || seconds.empty()) {
        return;
      }
      Collect(index_.out_bucket_[index_.SlotOf(v)], seconds);
      Merge(index_.next_out_, nullptr, fn);
    }

    // fn(idx0) for every edge u -A-> v with a rule `A second`, ascending,
    // skipping edges whose `skip[idx0]` is set (visited all the same).
    template <typename Fn>
    void Backward(VertexId v, Label second, const uint8_t* skip, Fn&& fn) {
      const std::vector<Label>& firsts = index_.grammar_->FirstPartners(second);
      if (!index_.Owns(v) || firsts.empty()) {
        return;
      }
      Collect(index_.in_bucket_[index_.SlotOf(v)], firsts);
      Merge(index_.next_in_, skip, fn);
    }

    // Adjacency entries visited so far: every edge of every matching
    // bucket, skipped ones included.
    uint64_t visits() const { return visits_; }

   private:
    // Heads of the buckets in the chain at `bucket` whose label is one of
    // `partners` (ascending, non-empty).
    void Collect(uint32_t bucket, const std::vector<Label>& partners) {
      cursors_.clear();
      for (; bucket != kNone; bucket = index_.buckets_[bucket].next) {
        const Bucket& b = index_.buckets_[bucket];
        // Branch-free binary search: partner lists are short and the
        // bucket labels at a vertex unpredictable.
        const Label* base = partners.data();
        for (size_t n = partners.size(); n > 1; n -= n / 2) {
          base = base[n / 2] <= b.label ? base + n / 2 : base;
        }
        if (*base == b.label) {
          cursors_.push_back(b.head);
        }
      }
    }

    // K-way merge of the collected lists by edge index: `cursors_` is a
    // binary min-heap of the lists' next edges (edge indices are distinct,
    // so the order is total). Each partner costs one sift of its list's
    // next edge from the root, O(log k); with one list (the common case)
    // the sift stops at once.
    template <typename Fn>
    void Merge(const std::vector<uint32_t>& next, const uint8_t* skip, Fn& fn) {
      std::make_heap(cursors_.begin(), cursors_.end(), std::greater<uint32_t>());
      while (!cursors_.empty()) {
        uint32_t idx = cursors_[0];
        ++visits_;
        if (skip == nullptr || skip[idx] == 0) {
          fn(idx);
        }
        uint32_t after = next[idx];
        if (after == kNone) {
          after = cursors_.back();
          cursors_.pop_back();
          if (cursors_.empty()) {
            break;
          }
        }
        SiftFromRoot(after);
      }
    }

    // Puts `value` at the heap's root and sifts it down to its place.
    void SiftFromRoot(uint32_t value) {
      size_t n = cursors_.size();
      size_t hole = 0;
      for (size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n && cursors_[child + 1] < cursors_[child]) {
          ++child;
        }
        if (value < cursors_[child]) {
          break;
        }
        cursors_[hole] = cursors_[child];
        hole = child;
      }
      cursors_[hole] = value;
    }

    const JoinIndex& index_;
    std::vector<uint32_t> cursors_;
    uint64_t visits_ = 0;
  };

 private:
  struct Bucket {
    uint32_t head;  // first (lowest-index) edge
    uint32_t tail;  // last edge, where the next one is linked
    uint32_t next;  // next bucket of the same vertex and direction
    Label label;
  };

  uint32_t SlotOf(VertexId v) const {
    return v >= lo1_ && v < hi1_ ? v - lo1_ : (hi1_ - lo1_) + (v - lo2_);
  }
  // Links `idx` into the `label` bucket of the chain at `*first_bucket`.
  void Link(uint32_t* first_bucket, std::vector<uint32_t>* next, uint32_t idx, Label label);

  const Grammar* grammar_;
  VertexId lo1_, hi1_, lo2_, hi2_;
  // Per owned vertex slot: first bucket of its out-/in-bucket chain.
  std::vector<uint32_t> out_bucket_;
  std::vector<uint32_t> in_bucket_;
  std::vector<Bucket> buckets_;
  // Per edge: the next edge of its out-/in-bucket (kNone at the tail).
  std::vector<uint32_t> next_out_;
  std::vector<uint32_t> next_in_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_JOIN_INDEX_H_
