// Pipelined partition I/O: block codec round trips, the store against an
// in-memory model, prefetch/write-behind semantics, and — the load-bearing
// guarantee — identical results whether the closure spills or stays in
// memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/graph/engine.h"
#include "src/graph/partition_codec.h"
#include "src/graph/partition_store.h"
#include "src/ir/parser.h"
#include "src/support/budget_arbiter.h"
#include "src/support/byte_io.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

EdgeRecord MakeEdge(VertexId src, VertexId dst, Label label, size_t payload_size = 4) {
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload.assign(payload_size, static_cast<uint8_t>(src * 7 + dst));
  return edge;
}

bool SameEdges(const std::vector<EdgeRecord>& a, const std::vector<EdgeRecord>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].src != b[i].src || a[i].dst != b[i].dst || a[i].label != b[i].label ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

// Standalone stores run their strands on a 1-worker runtime.
class IoPipelineTest : public ::testing::Test {
 protected:
  IoPipelineTest() : runtime_(TaskRuntimeOptions{1}) {}

  TaskRuntime runtime_;
};

TEST_F(IoPipelineTest, BlockCodecRoundTrip) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 200; ++v) {
    // Heavy payload sharing (every widened triple carries the same payload
    // in production) plus a few unique ones.
    edges.push_back(MakeEdge(v, v + 3, 1 + v % 4, v % 5 == 0 ? 24 : 4));
  }
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(edges, &file);
  EXPECT_LT(file.size(), RawFormatBytes(edges));  // dedup + deltas must actually shrink
  ASSERT_TRUE(HasBlockFileHeader(file));

  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("test.edges", file, &decoded);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(SameEdges(edges, decoded));
}

TEST_F(IoPipelineTest, BlockCodecPreservesUnsortedOrderAndMultipleBlocks) {
  // Appends arrive unsorted (externals grouped by owner, any src order) and
  // each append is its own block; decode must preserve exact order.
  std::vector<EdgeRecord> first = {MakeEdge(9, 2, 1), MakeEdge(3, 7, 2, 0), MakeEdge(9, 1, 1)};
  std::vector<EdgeRecord> second = {MakeEdge(1, 9, 3, 12), MakeEdge(0, 0, 1)};
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(first, &file);
  AppendEdgeBlock(second, &file);

  std::vector<EdgeRecord> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("test.edges", file, &decoded);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(SameEdges(expected, decoded));
}

// The size model partitions are charged by: per edge, the varint lengths of
// src, dst, label and payload length, plus the payload bytes. Partition cuts
// and splits follow it, so its values are pinned.
TEST_F(IoPipelineTest, RawFormatBytesIsTheVarintSizeModel) {
  EXPECT_EQ(RawFormatBytes({}), 0u);
  EXPECT_EQ(RawFormatBytes({MakeEdge(1, 2, 3, 4)}), 1u + 1 + 1 + 1 + 4);
  EXPECT_EQ(RawFormatBytes({MakeEdge(200, 70000, 3, 0)}), 2u + 3 + 1 + 1);
  EXPECT_EQ(RawFormatBytes({MakeEdge(1, 2, 3, 4), MakeEdge(200, 70000, 3, 130)}),
            8u + (2 + 3 + 1 + 2 + 130));
}

TEST_F(IoPipelineTest, EmptyWriteIsHeaderOnly) {
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock({}, &file);
  EXPECT_EQ(file.size(), kBlockFileHeaderSize);
  std::vector<EdgeRecord> decoded;
  EXPECT_TRUE(DecodePartitionBytes("empty.edges", file, &decoded).ok);
  EXPECT_TRUE(decoded.empty());
}

// Drives a store through initialize, append, rewrite and split, checking
// every observable against an in-memory model after each step: Load
// returns the edges written, in write order; Info().bytes is the summed
// RawFormatBytes of what was written; versions and segment histories
// follow the model; and the files on disk decode to the same edges.
TEST_F(IoPipelineTest, StoreMatchesInMemoryModel) {
  struct ModelPartition {
    std::vector<EdgeRecord> edges;
    uint64_t version = 0;
    std::vector<std::pair<uint64_t, uint64_t>> segments;
  };
  TempDir dir("iopipe-model");
  PartitionStore store(dir.path(), runtime_);
  std::vector<ModelPartition> model;

  auto owned = [&store](size_t p, const std::vector<EdgeRecord>& edges) {
    std::vector<EdgeRecord> out;
    for (const EdgeRecord& e : edges) {
      if (e.src >= store.Info(p).lo && e.src < store.Info(p).hi) {
        out.push_back(e);
      }
    }
    return out;
  };
  auto check = [&](const char* step) {
    ASSERT_EQ(store.NumPartitions(), model.size()) << step;
    for (size_t p = 0; p < model.size(); ++p) {
      const PartitionInfo& info = store.Info(p);
      EXPECT_TRUE(SameEdges(store.Load(p), model[p].edges)) << step << ": partition " << p;
      EXPECT_EQ(info.edges, model[p].edges.size()) << step << ": partition " << p;
      EXPECT_EQ(info.bytes, RawFormatBytes(model[p].edges)) << step << ": partition " << p;
      EXPECT_EQ(info.version, model[p].version) << step << ": partition " << p;
      EXPECT_EQ(info.segments, model[p].segments) << step << ": partition " << p;
    }
  };

  std::vector<EdgeRecord> base;
  for (VertexId v = 0; v < 80; ++v) {
    EdgeRecord edge = MakeEdge(v, v + 1, 1, 32);
    // Production payloads repeat heavily (widened triples, shared path
    // encodings); mirror that so the block format's dedup applies.
    edge.payload.assign(32, static_cast<uint8_t>(v % 3));
    base.push_back(std::move(edge));
  }
  store.Initialize(base, 81, 1024);
  ASSERT_GT(store.NumPartitions(), 2u);
  for (size_t p = 0; p < store.NumPartitions(); ++p) {
    ModelPartition part;
    part.edges = owned(p, base);
    part.version = 1;
    part.segments = {{1, part.edges.size()}};
    model.push_back(std::move(part));
  }
  check("initialize");

  std::vector<EdgeRecord> delta = {MakeEdge(0, 50, 2), MakeEdge(1, 60, 2)};
  store.Append(0, delta);
  model[0].edges.insert(model[0].edges.end(), delta.begin(), delta.end());
  model[0].segments.emplace_back(++model[0].version, model[0].edges.size());
  check("append");

  std::vector<EdgeRecord> replacement = {MakeEdge(store.Info(1).lo, 0, 5, 16)};
  store.Rewrite(1, replacement);
  model[1].edges = replacement;
  model[1].segments.emplace_back(++model[1].version, 1);
  check("rewrite");

  std::vector<EdgeRecord> all = store.Load(0);
  const ModelPartition parent = model[0];
  size_t pieces = store.SplitAndRewrite(0, all, 256);
  ASSERT_GT(pieces, 1u);
  std::vector<ModelPartition> split(pieces);
  for (size_t p = 0; p < pieces; ++p) {
    split[p].edges = owned(p, all);
    split[p].version = parent.version + 1;
    for (const auto& [version, count] : parent.segments) {
      std::vector<EdgeRecord> prefix(all.begin(), all.begin() + static_cast<ptrdiff_t>(count));
      split[p].segments.emplace_back(version, owned(p, prefix).size());
    }
    split[p].segments.emplace_back(split[p].version, split[p].edges.size());
  }
  model.erase(model.begin());
  model.insert(model.begin(), split.begin(), split.end());
  check("split");

  // What reached the disk is what the model holds, and the block format
  // beats the raw size model where it counts: on disk.
  store.Sync();
  uint64_t disk_bytes = 0;
  for (size_t p = 0; p < store.NumPartitions(); ++p) {
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ReadFileBytes(store.Info(p).path, &bytes));
    disk_bytes += bytes.size();
    std::vector<EdgeRecord> decoded;
    PartitionDecodeStatus status = DecodePartitionBytes(store.Info(p).path, bytes, &decoded);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_TRUE(SameEdges(decoded, model[p].edges)) << "partition " << p << " on disk";
  }
  EXPECT_LT(disk_bytes, store.TotalBytes());
}

TEST_F(IoPipelineTest, HintPrefetchesAndCountsHitsAndWaste) {
  TempDir dir("iopipe-hint");
  obs::MetricsRegistry metrics;
  PartitionStore store(dir.path(), runtime_, &metrics);
  std::vector<EdgeRecord> base;
  for (VertexId v = 0; v < 64; ++v) {
    base.push_back(MakeEdge(v, v, 1, 64));
  }
  store.Initialize(base, 64, 1024);
  ASSERT_GT(store.NumPartitions(), 2u);

  // Freshly written partitions are served straight from the write-back
  // cache; there is nothing for a hint to read ahead.
  EXPECT_FALSE(store.Load(0).empty());
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_write_cache_hits_total"), 1u);
  store.Hint({0});
  EXPECT_EQ(metrics.Snapshot().CounterOr("io_prefetch_issued_total"), 0u);

  // Appends invalidate the cached images; Hint re-reads them (behind the
  // queued append, so the read sees the appended file).
  store.Append(0, {MakeEdge(store.Info(0).lo, 7, 2)});
  store.Append(1, {MakeEdge(store.Info(1).lo, 8, 2)});
  store.Hint({0, 1});
  store.Sync();
  auto p0 = store.Load(0);
  auto p1 = store.Load(1);
  EXPECT_FALSE(p0.empty());
  EXPECT_FALSE(p1.empty());
  snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_prefetch_issued_total"), 2u);
  EXPECT_EQ(snap.CounterOr("io_prefetch_hits_total"), 2u);
  EXPECT_EQ(snap.CounterOr("io_prefetch_wasted_total"), 0u);

  // A mutation invalidates an unconsumed prefetch: wasted.
  uint64_t p2_edges = store.Info(2).edges;
  store.Append(2, {MakeEdge(store.Info(2).lo, 0, 9)});  // drop the write-back image
  store.Hint({2});
  store.Sync();
  store.Append(2, {MakeEdge(store.Info(2).lo, 1, 9)});
  snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_prefetch_wasted_total"), 1u);
  // And the post-append load still sees every edge (write-behind + barrier).
  EXPECT_EQ(store.Load(2).size(), p2_edges + 2);
}

TEST_F(IoPipelineTest, PrefetchCacheBorrowsFromBudgetLease) {
  TempDir dir("iopipe-borrow");
  obs::MetricsRegistry metrics;
  BudgetArbiter arbiter(uint64_t{64} << 20);
  BudgetLease lease = arbiter.Acquire(uint64_t{4} << 20);
  PartitionStore store(dir.path(), runtime_, &metrics, PartitionCacheBudget{&lease});
  // ~3 MB of edges in ~1 MB partitions: the cache (lease/4 = 1 MB) cannot
  // hold two partitions without growing the lease.
  std::vector<EdgeRecord> base;
  for (VertexId v = 0; v < 1536; ++v) {
    EdgeRecord edge = MakeEdge(v, v, 1, 2048);
    for (size_t i = 0; i < edge.payload.size(); ++i) {
      edge.payload[i] = static_cast<uint8_t>(v * 31 + i);  // incompressible
    }
    base.push_back(std::move(edge));
  }
  store.Initialize(base, 1536, uint64_t{1} << 20);
  ASSERT_GE(store.NumPartitions(), 3u);
  // Drop any write-back images so every hint must perform a real read.
  for (size_t p = 0; p < 3; ++p) {
    store.Append(p, {MakeEdge(store.Info(p).lo, 0, 9)});
  }
  uint64_t lease_before = lease.bytes();

  store.Hint({0, 1, 2});
  store.Sync();
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_prefetch_issued_total"), 3u);
  EXPECT_GT(snap.CounterOr("io_cache_budget_borrows_total"), 0u);
  EXPECT_GT(lease.bytes(), lease_before);
  lease.Release();
}

// A chain + extra edges under a tiny budget forces appends, rewrites, and
// splits; the closure must hold exactly the edges the same run computes in
// one in-memory partition.
TEST_F(IoPipelineTest, EngineSpillMatchesInMemory) {
  constexpr char kSource[] = R"(
    method m(int x) {
      int y
      y = x
      if (x >= 0) {
        y = x - 1
      }
      return
    }
  )";
  ParseResult parsed = ParseProgram(kSource);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Program program = std::move(parsed.program);
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);

  Grammar grammar;
  Label edge = grammar.Intern("edge");
  Label path = grammar.Intern("path");
  grammar.AddUnary(edge, path);
  grammar.AddBinary(path, edge, path);

  using Key = std::tuple<VertexId, VertexId, Label, std::vector<uint8_t>>;
  auto run = [&](uint64_t budget_bytes, uint64_t* splits) {
    TempDir dir("iopipe-eng");
    IntervalOracle oracle(&icfet);
    EngineOptions options;
    options.work_dir = dir.path();
    options.memory_budget_bytes = budget_bytes;
    GraphEngine engine(&grammar, &oracle, options);
    PathEncoding trivial = PathEncoding::Empty();
    const VertexId n = 40;
    for (VertexId v = 0; v + 1 < n; ++v) {
      engine.AddBaseEdge(v, v + 1, edge, trivial);
    }
    for (VertexId v = 0; v < n; v += 5) {
      engine.AddBaseEdge(n - 1 - v, v, edge, trivial);
    }
    engine.Finalize(n);
    engine.Run();
    std::vector<Key> closure;
    engine.ForEachEdge([&](const EdgeRecord& e) {
      closure.emplace_back(e.src, e.dst, e.label, e.payload);
    });
    std::sort(closure.begin(), closure.end());
    *splits = engine.stats().partition_splits;
    return closure;
  };

  uint64_t spill_splits = 0;
  uint64_t memory_splits = 0;
  std::vector<Key> spilled = run(uint64_t{16} << 10, &spill_splits);
  std::vector<Key> in_memory = run(uint64_t{64} << 20, &memory_splits);
  EXPECT_GT(spill_splits, 0u);  // the small budget really spilled
  EXPECT_EQ(memory_splits, 0u);
  EXPECT_FALSE(in_memory.empty());
  EXPECT_EQ(spilled, in_memory);
}

TEST_F(IoPipelineTest, FacadeReportsSpillMatchesInMemory) {
  constexpr char kSmall[] = R"(
    method main() {
      obj f : FileWriter
      int x
      x = ?
      f = new FileWriter
      event f open
      if (x > 0) {
        event f close
      }
      return
    }
  )";
  auto run = [&](uint64_t budget_bytes) {
    ParseResult parsed = ParseProgram(kSmall);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    GrappleOptions options;
    options.engine.memory_budget_bytes = budget_bytes;
    Grapple analyzer(std::move(parsed.program), options);
    GrappleResult result = analyzer.Check(AllBuiltinCheckers());
    std::string json;
    for (const auto& checker : result.checkers) {
      json += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
    }
    return json;
  };
  std::string in_memory = run(uint64_t{64} << 20);
  EXPECT_FALSE(in_memory.empty());
  EXPECT_EQ(run(uint64_t{16} << 10), in_memory);
}

}  // namespace
}  // namespace grapple
