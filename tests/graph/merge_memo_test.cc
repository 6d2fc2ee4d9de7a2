// The engine's merge memo (src/graph/merge_memo.h): interned payload ids,
// and whole alias closures run with the memo on and off. A memo may change
// how often the oracle is asked, never what the engine derives, so the
// closure, the partition files, the provenance log, the checkpoint manifest
// and the reports must be byte-identical either way; and because shards
// fold their misses in shard order, the memo's hit count depends on the
// shard count only, not on how many runtime workers ran the shards.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/alias_graph.h"
#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/graph/engine.h"
#include "src/graph/merge_memo.h"
#include "src/support/byte_io.h"
#include "src/symexec/cfet_builder.h"
#include "src/workload/workload.h"

namespace grapple {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> bytes) { return bytes; }

uint32_t Intern(PayloadTable* table, const std::vector<uint8_t>& bytes) {
  return table->Intern(bytes.data(), bytes.size());
}

std::vector<uint8_t> BytesOf(const PayloadTable& table, uint32_t id) {
  return std::vector<uint8_t>(table.data(id), table.data(id) + table.length(id));
}

TEST(PayloadTableTest, EqualBytesShareOneIdAndDistinctBytesDoNot) {
  PayloadTable table;
  const std::vector<std::vector<uint8_t>> payloads = {
      Bytes({}), Bytes({1}), Bytes({1, 2}), Bytes({2, 1}), Bytes({1, 2, 3}), Bytes({0})};
  std::vector<uint32_t> ids;
  for (const auto& payload : payloads) {
    ids.push_back(Intern(&table, payload));
  }
  EXPECT_EQ(table.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(ids[i], i) << "ids are dense, in first-intern order";
    EXPECT_EQ(BytesOf(table, ids[i]), payloads[i]);
    // A second intern of equal bytes, from another buffer, is the same id.
    std::vector<uint8_t> copy = payloads[i];
    EXPECT_EQ(Intern(&table, copy), ids[i]);
  }
  EXPECT_EQ(table.size(), payloads.size());

  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(Intern(&table, payloads[3]), 0u);
}

// Many payloads that share a prefix and a length: every one keeps its own id
// and its own bytes, whatever their hashes do.
TEST(PayloadTableTest, ManySimilarPayloadsStayDistinct) {
  PayloadTable table;
  constexpr uint32_t kCount = 5000;
  for (uint32_t i = 0; i < kCount; ++i) {
    std::vector<uint8_t> bytes(12, 0x5a);
    PutFixed32(&bytes, i);
    ASSERT_EQ(Intern(&table, bytes), i);
  }
  for (uint32_t i = 0; i < kCount; ++i) {
    std::vector<uint8_t> bytes(12, 0x5a);
    PutFixed32(&bytes, i);
    ASSERT_EQ(Intern(&table, bytes), i);
    ASSERT_EQ(BytesOf(table, i), bytes);
  }
  EXPECT_EQ(table.size(), kCount);
}

// --- whole closures, memo on and off ---

struct Subject {
  Program program;
  std::unique_ptr<CallGraph> call_graph;
  Icfet icfet;
  Grammar grammar;
  PointsToLabels labels;
};

Subject& TheSubject() {
  static Subject* subject = [] {
    auto* s = new Subject;
    WorkloadConfig config = ZooKeeperPreset(0.1);
    s->program = GenerateWorkload(config).program;
    UnrollLoops(&s->program, 2);
    s->call_graph = std::make_unique<CallGraph>(s->program);
    s->icfet = BuildIcfet(s->program, *s->call_graph);
    s->labels = BuildPointsToGrammar(&s->grammar, {"data", "stream"});
    return s;
  }();
  return *subject;
}

struct ClosureRun {
  std::vector<uint8_t> closure;  // every final edge, in partition order
  std::map<std::string, std::vector<uint8_t>> files;  // work dir contents
  uint64_t joins = 0;
  uint64_t splits = 0;
  uint64_t memo_hits = 0;
  uint64_t oracle_merges = 0;
};

ClosureRun RunClosure(bool memo, size_t shards, uint64_t budget, size_t workers) {
  Subject& s = TheSubject();
  TempDir dir("merge-memo");
  TaskRuntime runtime(TaskRuntimeOptions{workers});
  IntervalOracle oracle(&s.icfet);
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = budget;
  options.num_threads = shards;
  options.runtime = &runtime;
  options.enable_cache = memo;
  options.record_provenance = true;
  options.checkpoint_interval = 1;
  options.checkpoint_min_spacing_seconds = 0;
  GraphEngine engine(&s.grammar, &oracle, options);
  AliasGraph graph(s.program, *s.call_graph, s.icfet, s.labels, &engine);
  engine.Finalize(graph.num_vertices());
  engine.Run();

  ClosureRun run;
  engine.ForEachEdge([&](const EdgeRecord& e) {
    PutFixed32(&run.closure, e.src);
    PutFixed32(&run.closure, e.dst);
    PutFixed32(&run.closure, e.label);
    PutFixed32(&run.closure, static_cast<uint32_t>(e.payload.size()));
    run.closure.insert(run.closure.end(), e.payload.begin(), e.payload.end());
  });
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.is_regular_file()) {
      std::string error;
      EXPECT_TRUE(ReadFileBytes(entry.path().string(), &run.files[entry.path().filename()],
                                &error))
          << error;
    }
  }
  const EngineStats& stats = engine.stats();
  run.joins = stats.joins_attempted;
  run.splits = stats.partition_splits;
  run.memo_hits = stats.merge_memo_hits;
  run.oracle_merges = oracle.Stats().merges;
  return run;
}

struct ClosureCase {
  size_t shards;
  uint64_t budget;
};

class MergeMemoEngineTest : public ::testing::TestWithParam<ClosureCase> {};

TEST_P(MergeMemoEngineTest, SameBytesWithTheMemoOnAndOff) {
  const ClosureCase c = GetParam();
  ClosureRun off = RunClosure(/*memo=*/false, c.shards, c.budget, c.shards + 1);
  ClosureRun on = RunClosure(/*memo=*/true, c.shards, c.budget, c.shards + 1);
  ASSERT_FALSE(off.closure.empty());
  EXPECT_EQ(on.closure, off.closure);
  EXPECT_EQ(on.joins, off.joins);
  EXPECT_EQ(on.splits, off.splits);
  if (c.budget < (uint64_t{1} << 20)) {
    EXPECT_GT(off.splits, 0u) << "the small budget must take the closure out of core";
  }
  // Partition files, provenance.bin and the checkpoint manifest.
  ASSERT_GT(off.files.size(), 2u);
  EXPECT_TRUE(off.files.count("checkpoint.manifest"));
  EXPECT_TRUE(off.files.count("provenance.bin"));
  ASSERT_EQ(on.files.size(), off.files.size());
  for (const auto& [name, bytes] : off.files) {
    auto it = on.files.find(name);
    ASSERT_NE(it, on.files.end()) << name;
    EXPECT_EQ(it->second, bytes) << name;
  }

  // Every join is answered by the memo or by the oracle, never both.
  EXPECT_EQ(off.memo_hits, 0u);
  EXPECT_EQ(off.oracle_merges, off.joins);
  EXPECT_GT(on.memo_hits, 0u);
  EXPECT_EQ(on.oracle_merges + on.memo_hits, on.joins);

  // The hit count is a function of the shard count: one worker or many
  // run the same shards.
  for (size_t workers : {size_t{1}, 2 * c.shards + 1}) {
    ClosureRun again = RunClosure(/*memo=*/true, c.shards, c.budget, workers);
    EXPECT_EQ(again.memo_hits, on.memo_hits) << workers << " workers";
    EXPECT_EQ(again.closure, on.closure) << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(ShardsAndBudgets, MergeMemoEngineTest,
                         ::testing::Values(ClosureCase{1, uint64_t{64} << 20},
                                           ClosureCase{4, uint64_t{64} << 20},
                                           ClosureCase{1, 8 << 10}, ClosureCase{4, 8 << 10}),
                         [](const ::testing::TestParamInfo<ClosureCase>& info) {
                           return std::to_string(info.param.shards) + "shards_" +
                                  (info.param.budget >= (uint64_t{1} << 20) ? "64MB" : "8KB");
                         });

// The same through the facade, where engine.enable_cache switches the merge
// memo along with the oracle's memo: identical reports.
TEST(MergeMemoFacadeTest, ReportsIdenticalWithTheCacheOnAndOff) {
  auto reports = [](bool cache, size_t threads, uint64_t budget) {
    GrappleOptions options;
    options.engine.enable_cache = cache;
    options.engine.memory_budget_bytes = budget;
    options.scheduling.num_threads = threads;
    Grapple grapple(GenerateWorkload(ZooKeeperPreset(0.1)).program, options);
    GrappleResult result = grapple.Check(AllBuiltinCheckers());
    std::string out;
    for (const auto& checker : result.checkers) {
      out += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
    }
    return std::make_pair(out, result.TotalReports());
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint64_t budget : {uint64_t{64} << 20, uint64_t{8} << 10}) {
      auto off = reports(false, threads, budget);
      auto on = reports(true, threads, budget);
      EXPECT_GT(off.second, 0u);
      EXPECT_EQ(on.first, off.first) << threads << " threads, budget " << budget;
    }
  }
}

}  // namespace
}  // namespace grapple
