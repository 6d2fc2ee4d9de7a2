// IntervalOracle under concurrent MergeAndCheck calls. The join shards call
// one oracle from several threads at once; the only state they share is the
// memo, and a memo may change how fast an answer comes, never which answer.
// So every (a, b) merge made from 4 threads at once must return byte for
// byte what a single-threaded oracle without a memo returns for it,
// including nullopt for the unsatisfiable pairs, and the counters must add
// up per call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/constraint_oracle.h"
#include "src/graph/merge_memo.h"
#include "src/ir/parser.h"
#include "src/support/rng.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

constexpr char kFixture[] = R"(
  method helper(int a) {
    int r
    if (a > 2) {
      r = a - 2
      return r
    }
    r = a + 2
    return r
  }
  method work(int x, int y) {
    int t
    int u
    t = x + y
    if (t >= 0) {
      u = helper(t)
    }
    if (x < 5) {
      t = t + 1
    }
    if (y != 0) {
      t = t - 1
    }
    return
  }
)";

constexpr size_t kThreads = 4;
constexpr size_t kPayloads = 24;
constexpr size_t kRounds = 4;

using Answer = std::optional<std::vector<uint8_t>>;

class OracleFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ParseResult parsed = ParseProgram(kFixture);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    program_ = std::move(parsed.program);
    UnrollLoops(&program_, 2);
    call_graph_ = std::make_unique<CallGraph>(program_);
    icfet_ = BuildIcfet(program_, *call_graph_);
  }

  // A random root-anchored interval of `m`'s CFET.
  PathEncoding RandomInterval(Rng* rng, MethodId m) {
    const MethodCfet& cfet = icfet_.OfMethod(m);
    CfetNodeId node = kCfetRoot;
    while (cfet.NodeAt(node).has_children && rng->Chance(0.7)) {
      node = rng->Chance(0.5) ? MethodCfet::TrueChild(node) : MethodCfet::FalseChild(node);
      if (cfet.FindNode(node) == nullptr) {
        node = MethodCfet::ParentOf(node);
        break;
      }
    }
    return PathEncoding::Interval(m, kCfetRoot, node);
  }

  // Base payloads: `work` intervals, about half of them with an excursion
  // through `helper` (call edge, callee interval, usually the return edge).
  // Two intervals that take opposite sides of one branch make an
  // unsatisfiable pair.
  std::vector<std::vector<uint8_t>> BasePayloads(IntervalOracle* oracle) {
    MethodId work = *program_.FindMethod("work");
    Rng rng(20190413);
    std::vector<std::vector<uint8_t>> payloads;
    for (size_t i = 0; i < kPayloads; ++i) {
      PathEncoding enc = RandomInterval(&rng, work);
      if (rng.Chance(0.5)) {
        CallSiteId site = static_cast<CallSiteId>(rng.Below(icfet_.NumCallSites()));
        enc = PathEncoding::Append(enc, PathEncoding::CallEdge(site));
        enc = PathEncoding::Append(enc, RandomInterval(&rng, icfet_.CallSiteAt(site).callee));
        if (rng.Chance(0.7)) {
          enc = PathEncoding::Append(enc, PathEncoding::RetEdge(site));
        }
      }
      payloads.push_back(oracle->BasePayload(enc));
    }
    return payloads;
  }

  Program program_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
};

class OracleConcurrencyTest : public OracleFixture,
                              public ::testing::WithParamInterface<size_t> {
 protected:
  IntervalOracle::Options OracleOptions() const {
    IntervalOracle::Options options;
    options.cache_capacity = GetParam();
    return options;
  }
};

using OracleMemoTest = OracleFixture;

// The memo is one LRU of cache_capacity entries, whatever the capacity: a
// capacity-1 memo answers only a repeat of the last key, and a capacity-16
// memo keeps exactly the 16 most recent keys.
TEST_F(OracleMemoTest, HoldsCapacityEntriesInOneLruOrder) {
  IntervalOracle::Options uncached;
  uncached.enable_cache = false;
  IntervalOracle maker(&icfet_, uncached);
  std::vector<std::vector<uint8_t>> distinct;
  for (auto& payload : BasePayloads(&maker)) {
    if (std::find(distinct.begin(), distinct.end(), payload) == distinct.end()) {
      distinct.push_back(std::move(payload));
    }
  }
  ASSERT_GT(distinct.size(), 16u);
  auto check = [&](IntervalOracle* oracle, size_t i) {
    oracle->CheckPayload(distinct[i].data(), distinct[i].size());
  };

  IntervalOracle::Options one;
  one.cache_capacity = 1;
  IntervalOracle tiny(&icfet_, one);
  check(&tiny, 0);
  check(&tiny, 0);  // hit
  check(&tiny, 1);  // evicts 0
  check(&tiny, 0);
  EXPECT_EQ(tiny.Stats().cache_hits, 1u);
  EXPECT_EQ(tiny.Stats().constraints_checked, 3u);

  IntervalOracle::Options sixteen;
  sixteen.cache_capacity = 16;
  IntervalOracle small(&icfet_, sixteen);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < 16; ++i) {
      check(&small, i);
    }
  }
  EXPECT_EQ(small.Stats().cache_hits, 16u);
  check(&small, 16);  // evicts 0, the least recently used
  check(&small, 1);   // hit
  check(&small, 0);
  EXPECT_EQ(small.Stats().cache_hits, 17u);
  EXPECT_EQ(small.Stats().constraints_checked, 18u);
}

TEST_P(OracleConcurrencyTest, ConcurrentMergesMatchSingleThreadedAnswers) {
  ASSERT_GT(icfet_.NumCallSites(), 0u);
  // The reference decodes and solves every pair: no memo, one thread.
  IntervalOracle::Options uncached = OracleOptions();
  uncached.enable_cache = false;
  IntervalOracle reference(&icfet_, uncached);
  std::vector<std::vector<uint8_t>> payloads = BasePayloads(&reference);
  const size_t pairs = payloads.size() * payloads.size();
  auto merge = [&](IntervalOracle* oracle, size_t pair) {
    const auto& a = payloads[pair / payloads.size()];
    const auto& b = payloads[pair % payloads.size()];
    return oracle->MergeAndCheck(a.data(), a.size(), b.data(), b.size());
  };

  std::vector<Answer> expected(pairs);
  size_t unsat = 0;
  for (size_t pair = 0; pair < pairs; ++pair) {
    expected[pair] = merge(&reference, pair);
    unsat += expected[pair].has_value() ? 0 : 1;
  }
  // The fixture must exercise both answers, or a memo that confuses keys
  // could go unnoticed.
  ASSERT_GT(unsat, 0u);
  ASSERT_LT(unsat, pairs);

  // Every thread merges every pair kRounds times, each starting at a
  // different offset, so the threads race on the same memo keys (hits,
  // misses and, at the small capacity, evictions) from the first call on.
  IntervalOracle oracle(&icfet_, OracleOptions());
  std::vector<std::vector<Answer>> got(kThreads, std::vector<Answer>(kRounds * pairs));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t k = 0; k < kRounds * pairs; ++k) {
        size_t pair = (k + t * pairs / kThreads) % pairs;
        got[t][k] = merge(&oracle, pair);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < kRounds * pairs; ++k) {
      size_t pair = (k + t * pairs / kThreads) % pairs;
      ASSERT_EQ(got[t][k], expected[pair])
          << "thread " << t << ", call " << k << ", payloads " << pair / payloads.size()
          << " x " << pair % payloads.size();
    }
  }
  OracleStats stats = oracle.Stats();
  const uint64_t calls = kThreads * kRounds * pairs;
  EXPECT_EQ(stats.merges, calls);
  EXPECT_EQ(stats.cache_hits + stats.constraints_checked, calls);
}

INSTANTIATE_TEST_SUITE_P(CacheCapacity, OracleConcurrencyTest,
                         ::testing::Values(size_t{1} << 16,  // every key stays resident
                                           size_t{16}),      // constant eviction
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 16 ? std::string("Evicting")
                                                   : std::string("Resident");
                         });

// The engine's merge memo (src/graph/merge_memo.h) in front of the oracle:
// its answers, resolved back to bytes, must be what a memo-free oracle
// answers for the same two payloads.
class MergeMemoTest : public OracleFixture {
 protected:
  void SetUp() override {
    OracleFixture::SetUp();
    IntervalOracle::Options uncached;
    uncached.enable_cache = false;
    reference_ = std::make_unique<IntervalOracle>(&icfet_, uncached);
    payloads_ = BasePayloads(reference_.get());
    for (const auto& payload : payloads_) {
      ids_.push_back(table_.Intern(payload.data(), payload.size()));
    }
  }

  // Merges every (a, b) of the base payloads `passes` times in one round of
  // one shard, checks each answer against the reference, then folds.
  ShardMerges Round(MergeMemo* memo, ConstraintOracle* oracle, int passes) {
    ShardMerges merges(memo, &table_, oracle);
    std::vector<std::pair<size_t, ShardMerges::Answer>> answers;
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t pair = 0; pair < payloads_.size() * payloads_.size(); ++pair) {
        answers.emplace_back(pair, merges.Merge(ids_[pair / payloads_.size()],
                                                ids_[pair % payloads_.size()]));
      }
    }
    merges.FoldInto(memo, &table_);
    for (const auto& [pair, answer] : answers) {
      const auto& a = payloads_[pair / payloads_.size()];
      const auto& b = payloads_[pair % payloads_.size()];
      Answer expected = reference_->MergeAndCheck(a.data(), a.size(), b.data(), b.size());
      Answer got;
      if (answer.feasible) {
        uint32_t id = answer.interned ? answer.payload : merges.InternedId(answer.payload);
        got = std::vector<uint8_t>(table_.data(id), table_.data(id) + table_.length(id));
      }
      EXPECT_EQ(got, expected) << "payloads " << pair / payloads_.size() << " x "
                               << pair % payloads_.size();
    }
    return merges;
  }

  // Distinct (id_a, id_b) keys among the base payload pairs.
  size_t DistinctPairs() const {
    std::set<uint64_t> keys;
    for (uint32_t a : ids_) {
      for (uint32_t b : ids_) {
        keys.insert(MergeMemo::Key(a, b));
      }
    }
    return keys.size();
  }

  std::unique_ptr<IntervalOracle> reference_;
  std::vector<std::vector<uint8_t>> payloads_;
  PayloadTable table_;
  std::vector<uint32_t> ids_;
};

TEST_F(MergeMemoTest, AnswersMatchAMemoFreeOracleUnsatIncluded) {
  ASSERT_GT(icfet_.NumCallSites(), 0u);
  const size_t pairs = payloads_.size() * payloads_.size();
  const size_t distinct = DistinctPairs();
  MergeMemo memo(size_t{1} << 16);
  IntervalOracle oracle(&icfet_);
  // Round 1: the memo is empty, so each distinct pair asks the oracle once
  // and its repeats hit this shard's own misses.
  ShardMerges first = Round(&memo, &oracle, /*passes=*/2);
  EXPECT_EQ(oracle.Stats().merges, distinct);
  EXPECT_EQ(first.memo_hits(), 2 * pairs - distinct);
  EXPECT_EQ(memo.size(), distinct);
  // Round 2: every answer comes from the folded memo.
  ShardMerges second = Round(&memo, &oracle, /*passes=*/1);
  EXPECT_EQ(second.memo_hits(), pairs);
  EXPECT_EQ(oracle.Stats().merges, distinct);

  size_t unsat = 0;
  for (uint32_t a : ids_) {
    for (uint32_t b : ids_) {
      const uint32_t* answer = memo.Find(MergeMemo::Key(a, b));
      ASSERT_NE(answer, nullptr);
      unsat += *answer == MergeMemo::kUnsat ? 1 : 0;
    }
  }
  // Both answers are exercised, or a memo that confuses keys could pass.
  EXPECT_GT(unsat, 0u);
  EXPECT_LT(unsat, pairs);
}

TEST_F(MergeMemoTest, CapacityBoundsTheMemo) {
  ASSERT_GT(DistinctPairs(), 16u);
  MergeMemo memo(16);
  IntervalOracle oracle(&icfet_);
  Round(&memo, &oracle, /*passes=*/1);
  EXPECT_EQ(memo.size(), 16u);
  EXPECT_TRUE(memo.full());
  // A full memo answers only what it holds; the rest asks the oracle again
  // and still gets the reference's answers (checked inside Round).
  uint64_t merges_before = oracle.Stats().merges;
  ShardMerges again = Round(&memo, &oracle, /*passes=*/1);
  EXPECT_EQ(memo.size(), 16u);
  EXPECT_EQ(oracle.Stats().merges - merges_before, DistinctPairs() - 16u);
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.Find(MergeMemo::Key(ids_[0], ids_[0])), nullptr);
}

TEST_F(MergeMemoTest, NoMemoAsksTheOracleForEveryMerge) {
  IntervalOracle oracle(&icfet_);
  ShardMerges merges = Round(/*memo=*/nullptr, &oracle, /*passes=*/2);
  EXPECT_EQ(merges.memo_hits(), 0u);
  EXPECT_EQ(oracle.Stats().merges, 2 * payloads_.size() * payloads_.size());
}

}  // namespace
}  // namespace grapple
