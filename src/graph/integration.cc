#include "src/graph/integration.h"

#include <algorithm>

namespace grapple {

bool ClosureExpander::FirstSight(uint64_t triple) {
  // A closure holds a handful of records, so a linear scan beats a hash set.
  if (std::find(seen_.begin(), seen_.end(), triple) != seen_.end()) {
    return false;
  }
  seen_.push_back(triple);
  return true;
}

const std::vector<ClosureItem>& ClosureExpander::Expand(VertexId src, VertexId dst,
                                                        Label label) {
  // Depth-first: each queued record remembers which `out_` slot its source
  // record occupies.
  out_.clear();
  seen_.clear();
  queue_.clear();
  queue_.push_back({src, dst, label, -1});
  seen_.push_back(EdgeTripleHash(src, dst, label));
  while (!queue_.empty()) {
    ClosureItem cur = queue_.back();
    queue_.pop_back();
    int32_t my_index = static_cast<int32_t>(out_.size());
    for (Label result : grammar_->UnaryResults(cur.label)) {
      if (FirstSight(EdgeTripleHash(cur.src, cur.dst, result))) {
        queue_.push_back({cur.src, cur.dst, result, my_index});
      }
    }
    Label mirror = grammar_->MirrorOf(cur.label);
    if (mirror != kNoLabel && FirstSight(EdgeTripleHash(cur.dst, cur.src, mirror))) {
      queue_.push_back({cur.dst, cur.src, mirror, my_index});
    }
    out_.push_back(cur);
  }
  return out_;
}

EdgeDedupIndex::Admission EdgeDedupIndex::Admit(VertexId src, VertexId dst, Label label,
                                                const uint8_t* payload, size_t len,
                                                const std::vector<uint8_t>& true_payload,
                                                size_t max_variants) {
  Admission admission;
  admission.content = EdgeContentHash(src, dst, label, payload, len);
  if (content.Contains(admission.content)) {
    return admission;
  }
  uint32_t& variant_count = variants[EdgeTripleHash(src, dst, label)];
  if (variant_count >= max_variants) {
    admission.content =
        EdgeContentHash(src, dst, label, true_payload.data(), true_payload.size());
    if (content.Contains(admission.content)) {
      return admission;
    }
    admission.widened = true;
  }
  content.Insert(admission.content);
  ++variant_count;
  admission.added = true;
  return admission;
}

}  // namespace grapple
