#include "src/graph/merge_memo.h"

#include <cstring>

#include "src/support/byte_io.h"

namespace grapple {

uint32_t PayloadTable::Intern(const uint8_t* data, size_t len) {
  uint32_t& head = heads_[Fnv1a64(data, len)];
  for (uint32_t link = head; link != 0; link = spans_[link - 1].next) {
    const Span& span = spans_[link - 1];
    if (span.length == len &&
        (len == 0 || std::memcmp(bytes_.data() + span.offset, data, len) == 0)) {
      return link - 1;
    }
  }
  uint32_t id = static_cast<uint32_t>(spans_.size());
  spans_.push_back({bytes_.size(), static_cast<uint32_t>(len), head});
  bytes_.insert(bytes_.end(), data, data + len);
  head = id + 1;
  return id;
}

void PayloadTable::Clear() { *this = PayloadTable(); }

void MergeMemo::Insert(uint64_t key, uint32_t result) {
  if (!full()) {
    map_[key] = result;
  }
}

ShardMerges::Answer ShardMerges::Merge(uint32_t a, uint32_t b) {
  const uint64_t key = MergeMemo::Key(a, b);
  if (memo_ != nullptr) {
    if (const uint32_t* hit = memo_->Find(key)) {
      ++memo_hits_;
      return {*hit != MergeMemo::kUnsat, true, *hit};
    }
    if (const uint32_t* index = round_.Find(key)) {
      ++memo_hits_;
      return {misses_[*index].feasible, false, *index};
    }
  }
  std::optional<std::vector<uint8_t>> result = oracle_->MergeAndCheck(
      payloads_->data(a), payloads_->length(a), payloads_->data(b), payloads_->length(b));
  Miss miss{key, static_cast<uint32_t>(arena_.size()), 0, result.has_value(), MergeMemo::kUnsat};
  if (result.has_value()) {
    miss.length = static_cast<uint32_t>(result->size());
    arena_.insert(arena_.end(), result->begin(), result->end());
  }
  uint32_t index = static_cast<uint32_t>(misses_.size());
  misses_.push_back(miss);
  if (memo_ != nullptr) {
    round_[key] = index;
  }
  return {miss.feasible, false, index};
}

void ShardMerges::FoldInto(MergeMemo* memo, PayloadTable* payloads) {
  for (Miss& miss : misses_) {
    if (miss.feasible) {
      miss.id = payloads->Intern(arena_.data() + miss.offset, miss.length);
    }
    if (memo != nullptr) {
      memo->Insert(miss.key, miss.id);
    }
  }
}

}  // namespace grapple
