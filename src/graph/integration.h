// The serial integration step of a join round (§4.3): closure expansion of
// each join candidate and its admission against the global edge index.
//
// Both run once per candidate, on one thread, in a fixed candidate order, so
// they are kept allocation-light: the closure works on (src, dst, label)
// triples that share the candidate's payload and reuses its scratch buffers,
// and the dedup and variant tables are flat (support/flat_hash.h).
#ifndef GRAPPLE_SRC_GRAPH_INTEGRATION_H_
#define GRAPPLE_SRC_GRAPH_INTEGRATION_H_

#include <cstdint>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/graph/edge.h"
#include "src/support/flat_hash.h"

namespace grapple {

// One record of an edge's unary/mirror closure. `parent` is the index of
// the record it was rewritten from (-1 for the input edge).
struct ClosureItem {
  VertexId src;
  VertexId dst;
  Label label;
  int32_t parent;
};

class ClosureExpander {
 public:
  explicit ClosureExpander(const Grammar* grammar) : grammar_(grammar) {}

  // The closure of src -label-> dst over unary productions and mirror
  // labels, the input edge first; every record shares the input's payload.
  // The records form a forest rooted at the input (see ClosureItem). The
  // returned buffer is reused by the next call.
  const std::vector<ClosureItem>& Expand(VertexId src, VertexId dst, Label label);

 private:
  bool FirstSight(uint64_t triple);

  const Grammar* grammar_;
  std::vector<ClosureItem> queue_;
  std::vector<uint64_t> seen_;
  std::vector<ClosureItem> out_;
};

// Global dedup and per-triple variant bookkeeping. Hash-based: a 64-bit
// collision silently drops an edge, with negligible probability at the
// scales this engine targets.
struct EdgeDedupIndex {
  struct Admission {
    bool added = false;
    bool widened = false;  // added with the always-true payload
    // Content hash the edge is stored under (post-widening); on a
    // duplicate, the hash of the edge already recorded.
    uint64_t content = 0;
  };

  // Admits a join-derived edge: drops it when its content is already
  // recorded; once its (src, dst, label) triple holds `max_variants`
  // payload variants, further variants are widened to `true_payload` (and
  // dropped if that is recorded too).
  Admission Admit(VertexId src, VertexId dst, Label label, const uint8_t* payload, size_t len,
                  const std::vector<uint8_t>& true_payload, size_t max_variants);

  FlatHashSet64 content;
  FlatHashMap64 variants;  // triple hash -> distinct payloads recorded
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_INTEGRATION_H_
