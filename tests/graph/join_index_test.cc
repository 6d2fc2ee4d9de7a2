// The label-indexed join scan against a brute-force scan of the full
// adjacency filtered through Grammar::BinaryResults: same partners, in the
// same (ascending edge-index) order, forward and backward, with the
// in-frontier skip. Also the integration step's closure expansion and
// dedup/variant-cap admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/grammar/pointsto_grammar.h"
#include "src/graph/integration.h"
#include "src/graph/join_index.h"
#include "src/support/rng.h"

namespace grapple {
namespace {

struct TestEdge {
  VertexId src;
  VertexId dst;
  Label label;
};

struct ScanCase {
  uint64_t seed;
  // Owned vertex intervals; equal for a partition paired with itself.
  VertexId lo1, hi1, lo2, hi2;
};

class JoinIndexTest : public ::testing::TestWithParam<ScanCase> {};

TEST_P(JoinIndexTest, MatchesFilteredFullScanInOrder) {
  const ScanCase& param = GetParam();
  Grammar grammar;
  BuildPointsToGrammar(&grammar, {"f", "g", "h", "k"});
  Rng rng(param.seed);
  JoinIndex index(&grammar, param.lo1, param.hi1, param.lo2, param.hi2);
  auto owned_vertex = [&]() -> VertexId {
    VertexId width1 = param.hi1 - param.lo1;
    VertexId width2 = param.hi2 - param.lo2;
    VertexId pick = static_cast<VertexId>(rng.Below(width1 + width2));
    return pick < width1 ? param.lo1 + pick : param.lo2 + (pick - width1);
  };
  // A few hub vertices receive most edges, so one first label meets
  // several combinable buckets at the same vertex (flowsTo against assign
  // and every SAL[f]; alias against every store[f] and loadBar[f]).
  std::vector<VertexId> hubs;
  for (int h = 0; h < 3; ++h) {
    hubs.push_back(owned_vertex());
  }
  std::vector<TestEdge> edges;
  std::vector<uint8_t> in_frontier;
  bool interleaved_partners = false;

  for (int batch = 0; batch < 6; ++batch) {
    // Add a batch (the engine adds edges between join rounds).
    for (int n = 0; n < 150; ++n) {
      TestEdge e;
      e.src = rng.Chance(0.5) ? hubs[rng.Below(hubs.size())] : owned_vertex();
      // Mostly owned destinations, some outside both intervals.
      e.dst = rng.Chance(0.5)   ? hubs[rng.Below(hubs.size())]
              : rng.Chance(0.8) ? owned_vertex()
                                : param.hi1 + param.hi2 + static_cast<VertexId>(rng.Below(5));
      e.label = static_cast<Label>(rng.Below(grammar.NumLabels()));
      index.Add(static_cast<uint32_t>(edges.size()), e.src, e.dst, e.label);
      edges.push_back(e);
      in_frontier.push_back(rng.Chance(0.3) ? 1 : 0);
    }

    JoinIndex::Scan scan(index);
    uint64_t expected_visits = 0;
    for (uint32_t idx = 0; idx < edges.size(); ++idx) {
      const TestEdge& e1 = edges[idx];
      std::vector<uint32_t> want_fwd;
      std::vector<uint32_t> want_bwd;
      if (index.Owns(e1.dst)) {
        for (uint32_t j = 0; j < edges.size(); ++j) {
          if (edges[j].src == e1.dst && !grammar.BinaryResults(e1.label, edges[j].label).empty()) {
            want_fwd.push_back(j);
            ++expected_visits;
          }
        }
      }
      for (uint32_t j = 0; j < edges.size(); ++j) {
        if (edges[j].dst == e1.src && !grammar.BinaryResults(edges[j].label, e1.label).empty()) {
          ++expected_visits;
          if (in_frontier[j] == 0) {
            want_bwd.push_back(j);
          }
        }
      }
      std::vector<uint32_t> got_fwd;
      std::vector<uint32_t> got_bwd;
      scan.Forward(e1.dst, e1.label, [&](uint32_t j) { got_fwd.push_back(j); });
      scan.Backward(e1.src, e1.label, in_frontier.data(),
                    [&](uint32_t j) { got_bwd.push_back(j); });
      ASSERT_EQ(got_fwd, want_fwd) << "forward partners of edge " << idx;
      ASSERT_EQ(got_bwd, want_bwd) << "backward partners of edge " << idx;
      // The case is only meaningful if partners of different labels
      // interleave by index (label A, then B, then A again).
      for (const auto* seq : {&want_fwd, &want_bwd}) {
        for (size_t a = 0; a + 2 < seq->size() && !interleaved_partners; ++a) {
          Label first = edges[(*seq)[a]].label;
          for (size_t b = a + 1; b + 1 < seq->size(); ++b) {
            if (edges[(*seq)[b]].label != first) {
              for (size_t c = b + 1; c < seq->size(); ++c) {
                interleaved_partners |= edges[(*seq)[c]].label == first;
              }
              break;
            }
          }
        }
      }
    }
    EXPECT_EQ(scan.visits(), expected_visits);
  }
  EXPECT_TRUE(interleaved_partners) << "no hub interleaves partner labels; strengthen the case";
}

INSTANTIATE_TEST_SUITE_P(Graphs, JoinIndexTest,
                         ::testing::Values(ScanCase{1, 0, 30, 0, 30}, ScanCase{2, 0, 30, 0, 30},
                                           ScanCase{3, 10, 25, 40, 60},
                                           ScanCase{4, 40, 60, 10, 25},
                                           ScanCase{5, 0, 8, 8, 20}));

TEST(JoinIndexTest, ScansNothingAtUnownedVertices) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {"f"});
  JoinIndex index(&grammar, 0, 4, 0, 4);
  index.Add(0, 1, 9, labels.flows_to);  // dst outside the interval
  index.Add(1, 9, 2, labels.assign);    // src outside the interval
  JoinIndex::Scan scan(index);
  int calls = 0;
  scan.Forward(9, labels.flows_to, [&](uint32_t) { ++calls; });
  scan.Backward(9, labels.assign, nullptr, [&](uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(scan.visits(), 0u);
}

TEST(ClosureExpanderTest, MirrorsAndUnaryRulesFormAForest) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  ClosureExpander expander(&grammar);
  // new => flowsTo (unary) and newBar (mirror); flowsTo => flowsToBar;
  // newBar => flowsToBar (unary), already seen, so not repeated.
  const std::vector<ClosureItem>& closure = expander.Expand(1, 2, labels.new_label);
  ASSERT_EQ(closure.size(), 4u);
  EXPECT_EQ(closure[0].label, labels.new_label);
  EXPECT_EQ(closure[0].parent, -1);
  std::vector<Label> seen;
  for (size_t k = 1; k < closure.size(); ++k) {
    ASSERT_GE(closure[k].parent, 0);
    ASSERT_LT(static_cast<size_t>(closure[k].parent), k);
    seen.push_back(closure[k].label);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<Label> want = {labels.new_bar, labels.flows_to, labels.flows_to_bar};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want);
  // Buffers are reused: a second call replaces the first result.
  EXPECT_EQ(expander.Expand(3, 4, labels.assign).size(), 2u);
}

TEST(EdgeDedupIndexTest, DedupsAndWidensPastTheVariantCap) {
  EdgeDedupIndex index;
  const std::vector<uint8_t> truth = {0};
  std::vector<std::vector<uint8_t>> payloads = {{1}, {2}, {3}, {4}};
  // Cap 2: two variants are kept as they are, the third widens, the fourth
  // widens onto the recorded always-true edge and is dropped.
  EdgeDedupIndex::Admission a = index.Admit(1, 2, 0, payloads[0].data(), 1, truth, 2);
  EXPECT_TRUE(a.added);
  EXPECT_FALSE(a.widened);
  EXPECT_EQ(a.content, EdgeContentHash(1, 2, 0, payloads[0].data(), 1));
  EXPECT_FALSE(index.Admit(1, 2, 0, payloads[0].data(), 1, truth, 2).added);
  EXPECT_TRUE(index.Admit(1, 2, 0, payloads[1].data(), 1, truth, 2).added);
  EdgeDedupIndex::Admission widened = index.Admit(1, 2, 0, payloads[2].data(), 1, truth, 2);
  EXPECT_TRUE(widened.added);
  EXPECT_TRUE(widened.widened);
  EXPECT_EQ(widened.content, EdgeContentHash(1, 2, 0, truth.data(), truth.size()));
  EdgeDedupIndex::Admission dropped = index.Admit(1, 2, 0, payloads[3].data(), 1, truth, 2);
  EXPECT_FALSE(dropped.added);
  EXPECT_EQ(dropped.content, widened.content);
  EXPECT_EQ(index.variants[EdgeTripleHash(1, 2, 0)], 3u);
  EXPECT_EQ(index.content.size(), 3u);
  // Another triple has its own count.
  EXPECT_TRUE(index.Admit(2, 1, 0, payloads[3].data(), 1, truth, 2).added);
}

}  // namespace
}  // namespace grapple
