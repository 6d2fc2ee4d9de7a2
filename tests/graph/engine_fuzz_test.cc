// Differential fuzzing of the out-of-core engine: random graphs and random
// normalized grammars, checked against a trivial in-memory reference
// closure. Constraints are kept trivially true so the property isolates the
// join/partition/scheduling machinery.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/engine.h"
#include "src/ir/parser.h"
#include "src/support/rng.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

using EdgeTuple = std::tuple<VertexId, VertexId, Label>;

std::set<EdgeTuple> ReferenceClosure(const Grammar& grammar, std::set<EdgeTuple> edges) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<EdgeTuple> add;
    for (const auto& [s1, d1, l1] : edges) {
      for (Label unary : grammar.UnaryResults(l1)) {
        add.insert({s1, d1, unary});
      }
      Label mirror = grammar.MirrorOf(l1);
      if (mirror != kNoLabel) {
        add.insert({d1, s1, mirror});
      }
      // Tuples order by source first: the edges leaving d1 are one range.
      for (auto it = edges.lower_bound({d1, 0, 0}); it != edges.end() && std::get<0>(*it) == d1;
           ++it) {
        const auto& [s2, d2, l2] = *it;
        for (Label result : grammar.BinaryResults(l1, l2)) {
          add.insert({s1, d2, result});
        }
      }
    }
    for (const auto& edge : add) {
      if (edges.insert(edge).second) {
        changed = true;
      }
    }
  }
  return edges;
}

struct FuzzCase {
  uint64_t seed;
  uint64_t budget;
  size_t threads;
  // Larger, denser graphs for the out-of-core cases below.
  VertexId vertices = 24;
  size_t min_base_edges = 20;
  // The run must repartition (a pair's write-back splits a partition).
  bool must_split = false;
  // The run must stop a pair early because its resident edges outgrew the
  // budget (no lease to borrow from), and reschedule it.
  bool must_break = false;
};

class EngineFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EngineFuzzTest, MatchesReferenceClosure) {
  Rng rng(GetParam().seed);

  // Random normalized grammar over a handful of labels.
  Grammar grammar;
  const size_t kLabels = 5;
  std::vector<Label> labels;
  for (size_t i = 0; i < kLabels; ++i) {
    labels.push_back(grammar.Intern("L" + std::to_string(i)));
  }
  size_t binary_rules = 2 + rng.Below(4);
  for (size_t i = 0; i < binary_rules; ++i) {
    grammar.AddBinary(labels[rng.Below(kLabels)], labels[rng.Below(kLabels)],
                      labels[rng.Below(kLabels)]);
  }
  size_t unary_rules = rng.Below(3);
  for (size_t i = 0; i < unary_rules; ++i) {
    grammar.AddUnary(labels[rng.Below(kLabels)], labels[rng.Below(kLabels)]);
  }
  if (rng.Chance(0.5)) {
    grammar.SetMirror(labels[0], labels[1]);
  }

  // Random base graph.
  const VertexId kVertices = GetParam().vertices;
  std::set<EdgeTuple> base;
  size_t base_edges = GetParam().min_base_edges + rng.Below(30);
  for (size_t i = 0; i < base_edges; ++i) {
    base.insert({static_cast<VertexId>(rng.Below(kVertices)),
                 static_cast<VertexId>(rng.Below(kVertices)), labels[rng.Below(kLabels)]});
  }

  std::set<EdgeTuple> expected = ReferenceClosure(grammar, base);

  // Trivial ICFET (the oracle needs one even for empty encodings).
  ParseResult parsed = ParseProgram("method m() { return }");
  ASSERT_TRUE(parsed.ok);
  Program program = std::move(parsed.program);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  IntervalOracle oracle(&icfet);

  TempDir dir("engine-fuzz");
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = GetParam().budget;
  options.num_threads = GetParam().threads;
  GraphEngine engine(&grammar, &oracle, options);
  for (const auto& [src, dst, label] : base) {
    engine.AddBaseEdge(src, dst, label, PathEncoding::Empty());
  }
  engine.Finalize(kVertices);
  engine.Run();

  std::set<EdgeTuple> got;
  engine.ForEachEdge([&](const EdgeRecord& e) { got.insert({e.src, e.dst, e.label}); });
  EXPECT_EQ(got, expected) << "seed " << GetParam().seed;
  if (GetParam().must_split) {
    EXPECT_GT(engine.stats().partition_splits, 0u) << "seed " << GetParam().seed;
  }
  if (GetParam().must_break) {
    EXPECT_GT(engine.Metrics().CounterOr("engine_budget_stops_total"), 0u)
        << "seed " << GetParam().seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineFuzzTest,
    ::testing::Values(FuzzCase{1, 64 << 20, 1}, FuzzCase{2, 64 << 20, 1},
                      FuzzCase{3, 2 << 10, 1},  // tiny budget: heavy spilling
                      FuzzCase{4, 2 << 10, 1}, FuzzCase{5, 64 << 20, 3},
                      FuzzCase{6, 4 << 10, 2}, FuzzCase{7, 64 << 20, 1},
                      FuzzCase{8, 1 << 10, 1}, FuzzCase{9, 64 << 20, 4},
                      FuzzCase{10, 8 << 10, 2}));

// Graphs large enough that the closure outgrows its first layout: pairs
// reach their fixpoint, write back and split, so the delta frontier has to
// survive repartitioning.
INSTANTIATE_TEST_SUITE_P(
    Splitting, EngineFuzzTest,
    ::testing::Values(FuzzCase{100, 1 << 10, 1, 40, 100, true},
                      FuzzCase{101, 2 << 10, 2, 40, 100, true},
                      FuzzCase{105, 2 << 10, 3, 48, 120, true},
                      FuzzCase{110, 3 << 10, 1, 56, 140, true},
                      FuzzCase{112, 1 << 10, 2, 32, 80, true}));

// Budget below one pair's resident edges and no lease to borrow from: pairs
// stop before their fixpoint, write back what they have and are rescheduled.
INSTANTIATE_TEST_SUITE_P(
    BudgetBreak, EngineFuzzTest,
    ::testing::Values(FuzzCase{16, 64, 1, 32, 80, false, true},
                      FuzzCase{17, 48, 2, 32, 80, false, true}));

}  // namespace
}  // namespace grapple
