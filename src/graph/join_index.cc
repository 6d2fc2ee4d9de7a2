#include "src/graph/join_index.h"

#include "src/support/logging.h"

namespace grapple {

JoinIndex::JoinIndex(const Grammar* grammar, VertexId lo1, VertexId hi1, VertexId lo2,
                     VertexId hi2)
    : grammar_(grammar), lo1_(lo1), hi1_(hi1), lo2_(lo2), hi2_(hi2) {
  // A partition paired with itself has one interval, not two.
  size_t slots = (hi1 - lo1) + (lo1 == lo2 && hi1 == hi2 ? 0 : hi2 - lo2);
  out_bucket_.assign(slots, kNone);
  in_bucket_.assign(slots, kNone);
}

void JoinIndex::Add(uint32_t idx, VertexId src, VertexId dst, Label label) {
  GRAPPLE_CHECK_EQ(idx, next_out_.size());
  GRAPPLE_CHECK_LT(label, grammar_->NumLabels());
  next_out_.push_back(kNone);
  next_in_.push_back(kNone);
  if (Owns(src)) {
    Link(&out_bucket_[SlotOf(src)], &next_out_, idx, label);
  }
  if (Owns(dst)) {
    Link(&in_bucket_[SlotOf(dst)], &next_in_, idx, label);
  }
}

void JoinIndex::Link(uint32_t* first_bucket, std::vector<uint32_t>* next, uint32_t idx,
                     Label label) {
  for (uint32_t b = *first_bucket; b != kNone; b = buckets_[b].next) {
    Bucket& bucket = buckets_[b];
    if (bucket.label == label) {
      (*next)[bucket.tail] = idx;
      bucket.tail = idx;
      return;
    }
  }
  // New label at this vertex: prepend a bucket (chain order is irrelevant,
  // the scan merges matching buckets by edge index).
  buckets_.push_back({idx, idx, *first_bucket, label});
  *first_bucket = static_cast<uint32_t>(buckets_.size() - 1);
}

}  // namespace grapple
