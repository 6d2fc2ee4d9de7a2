// Engine tests on a plain reachability grammar (path := edge | path edge)
// with hand-built ICFETs providing the constraints.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/engine.h"
#include "src/obs/json.h"
#include "src/obs/statusz.h"
#include "src/ir/parser.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

// A two-branch method whose CFET supplies feasible and infeasible intervals:
//   [0,6]: x >= 0 && x-1 > 0  (sat)
//   [0,4]: x < 0 && x+1 > 0   (unsat)
constexpr char kCondSource[] = R"(
  method m(int x) {
    int y
    y = x
    if (x >= 0) {
      y = x - 1
    } else {
      y = x + 1
    }
    if (y > 0) {
      y = 0
    }
    return
  }
)";

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    ParseResult parsed = ParseProgram(kCondSource);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    program_ = std::move(parsed.program);
    UnrollLoops(&program_, 2);
    call_graph_ = std::make_unique<CallGraph>(program_);
    icfet_ = BuildIcfet(program_, *call_graph_);
    edge_ = grammar_.Intern("edge");
    path_ = grammar_.Intern("path");
    grammar_.AddUnary(edge_, path_);
    grammar_.AddBinary(path_, edge_, path_);
  }

  std::set<std::pair<VertexId, VertexId>> RunAndCollectPaths(
      GraphEngine* engine, const std::vector<std::tuple<VertexId, VertexId, PathEncoding>>& edges,
      VertexId num_vertices) {
    for (const auto& [src, dst, enc] : edges) {
      engine->AddBaseEdge(src, dst, edge_, enc);
    }
    engine->Finalize(num_vertices);
    engine->Run();
    std::set<std::pair<VertexId, VertexId>> paths;
    engine->ForEachEdgeWithLabel(path_, [&](const EdgeRecord& e) {
      paths.insert({e.src, e.dst});
    });
    return paths;
  }

  Program program_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
  Grammar grammar_;
  Label edge_ = kNoLabel;
  Label path_ = kNoLabel;
};

TEST_F(EngineTest, TransitiveClosureChain) {
  TempDir dir("engine-chain");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  PathEncoding trivial = PathEncoding::Empty();
  auto paths = RunAndCollectPaths(
      &engine, {{0, 1, trivial}, {1, 2, trivial}, {2, 3, trivial}}, 4);
  std::set<std::pair<VertexId, VertexId>> expected = {{0, 1}, {1, 2}, {2, 3},
                                                      {0, 2}, {1, 3}, {0, 3}};
  EXPECT_EQ(paths, expected);
  EXPECT_EQ(engine.stats().base_edges, 3u + 3u);  // edge + derived path labels
}

// Partition I/O is always pipelined; a caller that bypasses the facade's
// Validate() and asks for the retired synchronous mode is stopped.
TEST_F(EngineTest, RetiredSynchronousIoIsRefused) {
  TempDir dir("engine-sync-io");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.io_pipeline = false;
  EXPECT_DEATH(GraphEngine(&grammar_, &oracle, options), "io_pipeline = false is retired");
}

TEST_F(EngineTest, UnsatisfiableCompositionIsPruned) {
  TempDir dir("engine-unsat");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  // 0 -[x>=0 branch]-> 1 -[x<0 branch]-> 2: composing is infeasible.
  auto paths = RunAndCollectPaths(&engine,
                                  {{0, 1, PathEncoding::Interval(0, 0, 2)},
                                   {1, 2, PathEncoding::Interval(0, 0, 1)}},
                                  3);
  EXPECT_TRUE(paths.count({0, 1}));
  EXPECT_TRUE(paths.count({1, 2}));
  EXPECT_FALSE(paths.count({0, 2}));
  EXPECT_GT(engine.stats().unsat_pruned + oracle.Stats().unsat, 0u);
}

TEST_F(EngineTest, FeasibleCompositionSurvives) {
  TempDir dir("engine-sat");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  // [0,2] (x>=0) then [2,6] (x-1>0): feasible, fuses to [0,6].
  auto paths = RunAndCollectPaths(&engine,
                                  {{0, 1, PathEncoding::Interval(0, 0, 2)},
                                   {1, 2, PathEncoding::Interval(0, 2, 6)}},
                                  3);
  EXPECT_TRUE(paths.count({0, 2}));
}

// Property: results are independent of the memory budget (number of
// partitions) and thread count.
struct EngineConfigCase {
  uint64_t budget;
  size_t threads;
};

class EngineConfigTest : public ::testing::TestWithParam<EngineConfigCase> {};

TEST_P(EngineConfigTest, ClosureIndependentOfBudgetAndThreads) {
  ParseResult parsed = ParseProgram(kCondSource);
  ASSERT_TRUE(parsed.ok);
  Program program = std::move(parsed.program);
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  Grammar grammar;
  Label edge = grammar.Intern("edge");
  Label path = grammar.Intern("path");
  grammar.AddUnary(edge, path);
  grammar.AddBinary(path, edge, path);

  // A ring + chords, all trivially-true constraints, 64 vertices.
  std::vector<std::tuple<VertexId, VertexId>> base;
  for (VertexId v = 0; v < 64; ++v) {
    base.emplace_back(v, (v + 1) % 64);
    if (v % 7 == 0) {
      base.emplace_back(v, (v + 13) % 64);
    }
  }

  auto run = [&](uint64_t budget, size_t threads) {
    TempDir dir("engine-config");
    IntervalOracle oracle(&icfet);
    EngineOptions options;
    options.work_dir = dir.path();
    options.memory_budget_bytes = budget;
    options.num_threads = threads;
    GraphEngine engine(&grammar, &oracle, options);
    for (const auto& [src, dst] : base) {
      engine.AddBaseEdge(src, dst, edge, PathEncoding::Empty());
    }
    engine.Finalize(64);
    engine.Run();
    std::set<std::tuple<VertexId, VertexId, Label>> result;
    engine.ForEachEdge([&](const EdgeRecord& e) {
      result.insert({e.src, e.dst, e.label});
    });
    return result;
  };

  auto reference = run(uint64_t{64} << 20, 1);
  auto got = run(GetParam().budget, GetParam().threads);
  EXPECT_EQ(got, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineConfigTest,
    ::testing::Values(EngineConfigCase{4 << 10, 1},   // many tiny partitions
                      EngineConfigCase{16 << 10, 1},  // several partitions
                      EngineConfigCase{64 << 20, 2},  // parallel join
                      EngineConfigCase{8 << 10, 4}    // spill + parallel
                      ));

TEST_F(EngineTest, SmallBudgetForcesMultiplePartitions) {
  TempDir dir("engine-split");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = 2 << 10;
  GraphEngine engine(&grammar_, &oracle, options);
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v < 100; ++v) {
    edges.emplace_back(v, v + 1, PathEncoding::Empty());
  }
  auto paths = RunAndCollectPaths(&engine, edges, 101);
  EXPECT_GT(engine.NumPartitions(), 1u);
  // Full chain reachability: 101*100/2 pairs.
  EXPECT_EQ(paths.size(), 101u * 100u / 2u);
}

TEST_F(EngineTest, StatusReportsJoinsPerNewEdge) {
  TempDir dir("engine-yield");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = 2 << 10;
  GraphEngine engine(&grammar_, &oracle, options);
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v < 40; ++v) {
    edges.emplace_back(v, v + 1, PathEncoding::Empty());
  }
  RunAndCollectPaths(&engine, edges, 41);
  const EngineStats& stats = engine.stats();
  ASSERT_GT(stats.edges_added, 0u);

  // The engine's /statusz source carries the closure's yield: joins
  // attempted per edge added, from the same counters as its stats.
  std::string error;
  std::optional<obs::JsonValue> doc = obs::ParseJson(obs::Introspection::StatusJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* sources = doc->Find("sources");
  ASSERT_NE(sources, nullptr);
  const obs::JsonValue* status = sources->Find("engine");
  ASSERT_NE(status, nullptr);
  double expected =
      static_cast<double>(stats.joins_attempted) / static_cast<double>(stats.edges_added);
  EXPECT_NEAR(status->NumberOr("joins_per_new_edge", -1), expected, 1e-6 * expected);
}

TEST_F(EngineTest, VariantCapWidensTriples) {
  TempDir dir("engine-widen");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.max_variants_per_triple = 2;
  GraphEngine engine(&grammar_, &oracle, options);
  // Many parallel 0 -> k -> 99 two-hop routes with distinct encodings: the
  // (0, 99, path) triple exceeds the cap and gets widened, but reachability
  // is preserved.
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId k = 1; k <= 8; ++k) {
    // Distinct (nonexistent-method) intervals: each decodes to an opaque,
    // satisfiable constraint but yields a distinct payload variant.
    edges.emplace_back(0, k, PathEncoding::Interval(100 + k, 0, 0));
    edges.emplace_back(k, 99, PathEncoding::Interval(0, 0, 0));
  }
  auto paths = RunAndCollectPaths(&engine, edges, 100);
  EXPECT_TRUE(paths.count({0, 99}));
  EXPECT_GT(engine.stats().widened_triples, 0u);
}

// Many chains share the same interval encodings, so most joins repeat an
// earlier merge. The engine's merge memo answers those repeats before the
// oracle; with it off, the oracle's own memo does.
TEST_F(EngineTest, CacheHitsOnRepeatedEncodings) {
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v < 30; v += 3) {
    edges.emplace_back(v, v + 1, PathEncoding::Interval(0, 0, 2));
    edges.emplace_back(v + 1, v + 2, PathEncoding::Interval(0, 2, 6));
  }
  for (bool merge_memo : {true, false}) {
    SCOPED_TRACE(merge_memo ? "merge memo on" : "merge memo off");
    TempDir dir("engine-cache");
    IntervalOracle::Options oracle_options;
    oracle_options.enable_cache = true;
    IntervalOracle oracle(&icfet_, oracle_options);
    EngineOptions options;
    options.work_dir = dir.path();
    options.enable_cache = merge_memo;
    GraphEngine engine(&grammar_, &oracle, options);
    RunAndCollectPaths(&engine, edges, 31);
    const EngineStats& stats = engine.stats();
    EXPECT_EQ(oracle.Stats().merges + stats.merge_memo_hits, stats.joins_attempted);
    if (merge_memo) {
      EXPECT_GT(stats.merge_memo_hits, 0u);
    } else {
      EXPECT_EQ(stats.merge_memo_hits, 0u);
      EXPECT_GT(oracle.Stats().cache_hits, 0u);
    }
  }
}

TEST_F(EngineTest, MirrorEdgesMaterialized) {
  Grammar grammar;
  Label fwd = grammar.Intern("fwd");
  Label bwd = grammar.Intern("bwd");
  grammar.SetMirror(fwd, bwd);
  TempDir dir("engine-mirror");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar, &oracle, options);
  engine.AddBaseEdge(3, 8, fwd, PathEncoding::Empty());
  engine.Finalize(10);
  engine.Run();
  bool saw_mirror = false;
  engine.ForEachEdgeWithLabel(bwd, [&](const EdgeRecord& e) {
    saw_mirror = e.src == 8 && e.dst == 3;
  });
  EXPECT_TRUE(saw_mirror);
}

}  // namespace
}  // namespace grapple
