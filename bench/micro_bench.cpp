// Micro-benchmarks (google-benchmark) for the engine's hot primitives and
// the design-choice ablations called out in DESIGN.md:
//   * interval merge/compact vs decode+solve cost,
//   * Fourier-Motzkin solving,
//   * LRU memoization,
//   * edge (de)serialization and partition I/O round trips,
//   * the closure's two hot loops: the label-indexed join scan and the
//     serial integration step (closure expansion, dedup, variant cap).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/baseline/explicit_oracle.h"
#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/graph/constraint_oracle.h"
#include "src/graph/integration.h"
#include "src/graph/join_index.h"
#include "src/graph/merge_memo.h"
#include "src/graph/partition_store.h"
#include "src/ir/parser.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/support/lru_cache.h"
#include "src/support/rng.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

// Shared fixture: a branchy two-method program and its ICFET.
struct MicroFixture {
  Program program;
  std::unique_ptr<CallGraph> call_graph;
  Icfet icfet;

  MicroFixture() {
    ParseResult parsed = ParseProgram(R"(
      method callee(int a, int b) {
        int r
        r = a + b
        if (r > 0) {
          r = r - 1
        }
        if (a < b) {
          r = r + 2
        }
        return r
      }
      method main(int x) {
        int y
        int z
        y = x + 3
        if (x >= 0) {
          z = callee(x, y)
        }
        if (y > 10) {
          z = 0
        }
        return
      }
    )");
    program = std::move(parsed.program);
    UnrollLoops(&program, 2);
    call_graph = std::make_unique<CallGraph>(program);
    icfet = BuildIcfet(program, *call_graph);
  }
};

MicroFixture& Fixture() {
  static MicroFixture fixture;
  return fixture;
}

PathEncoding InterprocEncoding() {
  MicroFixture& f = Fixture();
  MethodId main = *f.program.FindMethod("main");
  MethodId callee = *f.program.FindMethod("callee");
  PathEncoding enc = PathEncoding::Interval(main, 0, 2);
  enc = PathEncoding::Append(enc, PathEncoding::CallEdge(0));
  enc = PathEncoding::Append(enc, PathEncoding::Interval(callee, 0, 6));
  enc = PathEncoding::Append(enc, PathEncoding::RetEdge(0));
  enc = PathEncoding::Append(enc, PathEncoding::Interval(main, 2, 5));
  return enc;
}

void BM_PathEncodingAppend(benchmark::State& state) {
  PathEncoding a = PathEncoding::Interval(0, 0, 2);
  PathEncoding b = InterprocEncoding();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PathEncoding::Append(a, b));
  }
}
BENCHMARK(BM_PathEncodingAppend);

void BM_PathEncodingCompact(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Compact());
  }
}
BENCHMARK(BM_PathEncodingCompact);

void BM_PathEncodingSerialize(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  std::vector<uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    enc.Serialize(&bytes);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_PathEncodingSerialize);

void BM_PathDecode(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  PathDecoder decoder(&Fixture().icfet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.Decode(enc));
  }
}
BENCHMARK(BM_PathDecode);

void BM_DecodeAndSolve(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  PathDecoder decoder(&Fixture().icfet);
  Solver solver;
  for (auto _ : state) {
    Constraint constraint = decoder.Decode(enc);
    benchmark::DoNotOptimize(solver.Solve(constraint));
  }
}
BENCHMARK(BM_DecodeAndSolve);

// Ablation: the memoized path (cache hit) vs full decode+solve.
void BM_OracleCacheHit(benchmark::State& state) {
  IntervalOracle oracle(&Fixture().icfet);
  PathEncoding a = PathEncoding::Interval(0, 0, 2);
  PathEncoding b = InterprocEncoding();
  auto pa = oracle.BasePayload(a);
  auto pb = oracle.BasePayload(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MergeAndCheck(pa.data(), pa.size(), pb.data(), pb.size()));
  }
}
BENCHMARK(BM_OracleCacheHit);

// The same repeat merge answered by the engine's merge memo, as a join
// shard sees it: two interned payload ids, one probe of the frozen memo.
void BM_MergeMemoHit(benchmark::State& state) {
  IntervalOracle oracle(&Fixture().icfet);
  auto pa = oracle.BasePayload(PathEncoding::Interval(0, 0, 2));
  auto pb = oracle.BasePayload(InterprocEncoding());
  PayloadTable payloads;
  uint32_t a = payloads.Intern(pa.data(), pa.size());
  uint32_t b = payloads.Intern(pb.data(), pb.size());
  MergeMemo memo(size_t{1} << 16);
  ShardMerges first_round(&memo, &payloads, &oracle);
  first_round.Merge(a, b);
  first_round.FoldInto(&memo, &payloads);
  ShardMerges merges(&memo, &payloads, &oracle);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merges.Merge(a, b));
  }
}
BENCHMARK(BM_MergeMemoHit);

void BM_OracleNoCache(benchmark::State& state) {
  IntervalOracle::Options options;
  options.enable_cache = false;
  IntervalOracle oracle(&Fixture().icfet, options);
  PathEncoding a = PathEncoding::Interval(0, 0, 2);
  PathEncoding b = InterprocEncoding();
  auto pa = oracle.BasePayload(a);
  auto pb = oracle.BasePayload(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MergeAndCheck(pa.data(), pa.size(), pb.data(), pb.size()));
  }
}
BENCHMARK(BM_OracleNoCache);

// The merge hot loop as the join shards run it: several threads calling one
// shared oracle. The payload mix is cache-hit heavy (8 payloads, so 64 keys,
// all resident after the first pass), which leaves the merge path itself
// (deserialize, append, serialize, memo probe, compact) as the measured
// work. items_per_second at 4 threads over 1 thread is how far the oracle
// lets the join shards run in parallel.
void BM_OracleMergeContended(benchmark::State& state) {
  static IntervalOracle oracle(&Fixture().icfet);
  static const std::vector<std::vector<uint8_t>> payloads = [] {
    MicroFixture& f = Fixture();
    MethodId main = *f.program.FindMethod("main");
    MethodId callee = *f.program.FindMethod("callee");
    PathEncoding call = PathEncoding::Append(PathEncoding::Interval(main, 0, 2),
                                             PathEncoding::CallEdge(0));
    std::vector<std::vector<uint8_t>> out;
    for (const PathEncoding& enc :
         {PathEncoding::Interval(main, 0, 2), PathEncoding::Interval(main, 2, 5),
          PathEncoding::Interval(main, 0, 5), PathEncoding::Interval(callee, 0, 6),
          PathEncoding::Interval(callee, 0, 3), call,
          PathEncoding::Append(call, PathEncoding::Interval(callee, 0, 6)),
          InterprocEncoding()}) {
      out.push_back(oracle.BasePayload(enc));
    }
    return out;
  }();
  const size_t n = payloads.size();
  size_t pair = static_cast<size_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    const auto& a = payloads[(pair / n) % n];
    const auto& b = payloads[pair % n];
    benchmark::DoNotOptimize(oracle.MergeAndCheck(a.data(), a.size(), b.data(), b.size()));
    ++pair;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleMergeContended)->Threads(1)->Threads(4)->UseRealTime();

// Ablation: the explicit-constraint codec's merge (Table 5's baseline).
void BM_ExplicitOracleMerge(benchmark::State& state) {
  ExplicitOracle::Options options;
  options.enable_cache = false;
  ExplicitOracle oracle(&Fixture().icfet, options);
  auto pa = oracle.BasePayload(PathEncoding::Interval(0, 0, 2));
  auto pb = oracle.BasePayload(InterprocEncoding());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MergeAndCheck(pa.data(), pa.size(), pb.data(), pb.size()));
  }
}
BENCHMARK(BM_ExplicitOracleMerge);

void BM_FourierMotzkin(benchmark::State& state) {
  // A dense random-but-fixed system over `n` variables.
  int64_t n = state.range(0);
  Rng rng(42);
  VarPool pool;
  std::vector<VarId> vars;
  for (int64_t i = 0; i < n; ++i) {
    vars.push_back(pool.Fresh());
  }
  Constraint constraint;
  for (int64_t i = 0; i < n * 2; ++i) {
    LinearExpr e;
    for (int64_t v = 0; v < n; ++v) {
      e = e.Add(LinearExpr::Term(vars[v], rng.Range(-2, 2)));
    }
    constraint.And(Atom::Compare(e, Cmp::kLe, LinearExpr::Constant(rng.Range(0, 10))));
  }
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(constraint));
  }
}
BENCHMARK(BM_FourierMotzkin)->Arg(2)->Arg(4)->Arg(8);

void BM_LruCache(benchmark::State& state) {
  LruCache<uint64_t, int> cache(1024);
  Rng rng(7);
  for (uint64_t i = 0; i < 1024; ++i) {
    cache.Put(i, static_cast<int>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(rng.Below(2048)));
  }
}
BENCHMARK(BM_LruCache);

void BM_PartitionRoundTrip(benchmark::State& state) {
  TempDir dir("micro-partition");
  TaskRuntime runtime(TaskRuntimeOptions{1});
  PartitionStore store(dir.path(), runtime);
  std::vector<EdgeRecord> edges;
  PathEncoding enc = InterprocEncoding();
  for (VertexId v = 0; v < 1000; ++v) {
    EdgeRecord edge;
    edge.src = v;
    edge.dst = v + 1;
    edge.label = 1;
    enc.Serialize(&edge.payload);
    edges.push_back(std::move(edge));
  }
  store.Initialize(edges, 1001, uint64_t{1} << 30);
  for (auto _ : state) {
    auto loaded = store.Load(0);
    benchmark::DoNotOptimize(loaded);
    store.Rewrite(0, loaded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.Info(0).bytes) * 2);
}
BENCHMARK(BM_PartitionRoundTrip);

// A hub-heavy random points-to graph: 40K edges over 2,000 vertices, half
// of their endpoints on 20 hubs, labels uniform over the points-to grammar
// with `num_fields` fields (so hubs carry many label buckets, and with many
// fields one frontier label meets many combinable buckets at a hub).
struct JoinGraph {
  Grammar grammar;
  std::vector<EdgeRecord> edges;  // payloads left empty

  explicit JoinGraph(int num_fields) {
    std::vector<std::string> fields;
    for (int f = 0; f < num_fields; ++f) {
      fields.push_back("f" + std::to_string(f));
    }
    BuildPointsToGrammar(&grammar, fields);
    Rng rng(11);
    auto vertex = [&rng]() -> VertexId {
      return rng.Chance(0.5) ? static_cast<VertexId>(rng.Below(20) * 100)
                             : static_cast<VertexId>(rng.Below(2000));
    };
    for (int i = 0; i < 40000; ++i) {
      EdgeRecord edge;
      edge.src = vertex();
      edge.dst = vertex();
      edge.label = static_cast<Label>(rng.Below(grammar.NumLabels()));
      edges.push_back(std::move(edge));
    }
  }
};

// The join scan over one loaded pair: every edge is in the frontier and is
// joined forward and backward. Arg: field count. Items are partners
// enumerated.
void BM_JoinScan(benchmark::State& state) {
  JoinGraph graph(static_cast<int>(state.range(0)));
  JoinIndex index(&graph.grammar, 0, 2000, 0, 2000);
  for (size_t i = 0; i < graph.edges.size(); ++i) {
    const EdgeRecord& e = graph.edges[i];
    index.Add(static_cast<uint32_t>(i), e.src, e.dst, e.label);
  }
  uint64_t partners = 0;
  for (auto _ : state) {
    JoinIndex::Scan scan(index);
    uint64_t found = 0;
    for (const EdgeRecord& e : graph.edges) {
      scan.Forward(e.dst, e.label, [&found](uint32_t idx) { found += idx; });
      scan.Backward(e.src, e.label, nullptr, [&found](uint32_t idx) { found += idx; });
    }
    benchmark::DoNotOptimize(found);
    partners += scan.visits();
  }
  state.SetItemsProcessed(static_cast<int64_t>(partners));
}
BENCHMARK(BM_JoinScan)->Arg(2)->Arg(8)->Arg(200)->Unit(benchmark::kMillisecond);

// One integration round: closure expansion and admission (dedup probe,
// variant cap, widening) of 20K join candidates drawn from 4K triples with
// 12 payload variants each, so most candidates are duplicates and busy
// triples widen. A fresh index per iteration; items are candidates.
void BM_IntegrateRound(benchmark::State& state) {
  static Grammar grammar;
  static PointsToLabels labels = BuildPointsToGrammar(&grammar, {"a", "b", "c", "d"});
  struct Cand {
    VertexId src;
    VertexId dst;
    Label label;
    uint32_t variant;
  };
  Rng rng(5);
  std::vector<Cand> triples;
  for (int i = 0; i < 4000; ++i) {
    triples.push_back({static_cast<VertexId>(rng.Below(3000)),
                       static_cast<VertexId>(rng.Below(3000)),
                       static_cast<Label>(rng.Below(grammar.NumLabels())), 0});
  }
  std::vector<Cand> batch;
  for (int i = 0; i < 20000; ++i) {
    Cand c = triples[rng.Below(triples.size())];
    c.variant = static_cast<uint32_t>(rng.Below(12));
    batch.push_back(c);
  }
  std::vector<std::vector<uint8_t>> payloads(12);
  for (uint32_t v = 0; v < 12; ++v) {
    payloads[v].assign(24, static_cast<uint8_t>(v + 1));
  }
  const std::vector<uint8_t> truth(1, 0);
  ClosureExpander expander(&grammar);
  uint64_t added = 0;
  for (auto _ : state) {
    EdgeDedupIndex index;
    for (const Cand& c : batch) {
      const std::vector<uint8_t>& payload = payloads[c.variant];
      for (const ClosureItem& item : expander.Expand(c.src, c.dst, c.label)) {
        added += index.Admit(item.src, item.dst, item.label, payload.data(), payload.size(),
                             truth, 8)
                     .added;
      }
    }
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_IntegrateRound);

}  // namespace
}  // namespace grapple

BENCHMARK_MAIN();
