// Pins the engine's integration order, not just its closure set: one
// in-memory pair run edge for edge against a sequential reference of the
// specified order (per frontier edge, forward partners then non-frontier
// backward partners, each in ascending edge index; candidates integrated in
// that order through the unary/mirror closure, the dedup and the per-triple
// variant cap). A fake oracle gives every edge a small payload, so busy
// triples reach the cap and which variants are widened depends on the
// order, as do the positions of the edges in the partition file.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/grammar/pointsto_grammar.h"
#include "src/graph/engine.h"
#include "src/support/byte_io.h"
#include "src/support/rng.h"

namespace grapple {
namespace {

constexpr uint8_t kTruePayload = 200;

// One-byte payloads: base edges get their ingestion index mod 7, a merge
// mixes its inputs into 0..4 and prunes some pairs as infeasible. Pure
// functions of the inputs, as the engine requires of an oracle.
class ByteOracle : public ConstraintOracle {
 public:
  std::vector<uint8_t> BasePayload(const PathEncoding&) override {
    return {static_cast<uint8_t>(next_base_++ % 7)};
  }
  std::vector<uint8_t> TruePayload() override { return {kTruePayload}; }
  std::optional<std::vector<uint8_t>> MergeAndCheck(const uint8_t* a, size_t a_len,
                                                    const uint8_t* b, size_t b_len) override {
    EXPECT_EQ(a_len, 1u);
    EXPECT_EQ(b_len, 1u);
    return Merge(a[0], b[0]);
  }
  OracleStats Stats() const override { return {}; }
  void ResetStats() override {}

  static std::optional<std::vector<uint8_t>> Merge(uint8_t a, uint8_t b) {
    if ((a + b) % 11 == 10) {
      return std::nullopt;
    }
    return std::vector<uint8_t>{static_cast<uint8_t>((a * 31 + b * 7 + 1) % 5)};
  }

 private:
  size_t next_base_ = 0;
};

using Key = std::tuple<VertexId, VertexId, Label, uint8_t>;

// The specified single-pair algorithm, written out sequentially.
class ReferenceRun {
 public:
  ReferenceRun(const Grammar& grammar, size_t max_variants)
      : grammar_(grammar), max_variants_(max_variants) {}

  std::vector<EdgeRecord> Run(const std::vector<std::tuple<VertexId, VertexId, Label>>& base) {
    // Finalize: closure of each base edge, dedup, then the store's layout
    // order (sorted by source, then destination, as PartitionStore lays
    // out a fresh partition).
    for (size_t i = 0; i < base.size(); ++i) {
      const auto& [src, dst, label] = base[i];
      for (const EdgeRecord& e : Closure(src, dst, label, static_cast<uint8_t>(i % 7))) {
        if (seen_.insert(KeyOf(e)).second) {
          ++variants_[{e.src, e.dst, e.label}];
          edges_.push_back(e);
        }
      }
    }
    std::sort(edges_.begin(), edges_.end(), [](const EdgeRecord& a, const EdgeRecord& b) {
      if (a.src != b.src) {
        return a.src < b.src;
      }
      return a.dst < b.dst;
    });
    std::vector<size_t> frontier(edges_.size());
    std::vector<uint8_t> in_frontier(edges_.size(), 1);
    for (size_t i = 0; i < frontier.size(); ++i) {
      frontier[i] = i;
    }
    while (!frontier.empty()) {
      std::vector<EdgeRecord> candidates;
      auto join = [&](const EdgeRecord& a, const EdgeRecord& b) {
        std::optional<std::vector<uint8_t>> payload =
            ByteOracle::Merge(a.payload[0], b.payload[0]);
        if (!payload.has_value()) {
          return;
        }
        for (Label result : grammar_.BinaryResults(a.label, b.label)) {
          candidates.push_back({a.src, b.dst, result, *payload});
        }
      };
      const size_t resident = edges_.size();
      for (size_t f : frontier) {
        const EdgeRecord e1 = edges_[f];
        for (size_t j = 0; j < resident; ++j) {
          if (edges_[j].src == e1.dst &&
              !grammar_.BinaryResults(e1.label, edges_[j].label).empty()) {
            join(e1, edges_[j]);
          }
        }
        for (size_t j = 0; j < resident; ++j) {
          if (edges_[j].dst == e1.src && in_frontier[j] == 0 &&
              !grammar_.BinaryResults(edges_[j].label, e1.label).empty()) {
            join(edges_[j], e1);
          }
        }
      }
      std::fill(in_frontier.begin(), in_frontier.end(), 0);
      frontier.clear();
      for (const EdgeRecord& c : candidates) {
        for (EdgeRecord e : Closure(c.src, c.dst, c.label, c.payload[0])) {
          if (seen_.count(KeyOf(e)) != 0) {
            continue;
          }
          uint32_t& count = variants_[{e.src, e.dst, e.label}];
          if (count >= max_variants_) {
            e.payload = {kTruePayload};
            if (seen_.count(KeyOf(e)) != 0) {
              continue;
            }
            ++widened_;
          }
          seen_.insert(KeyOf(e));
          ++count;
          frontier.push_back(edges_.size());
          in_frontier.push_back(1);
          edges_.push_back(e);
        }
      }
    }
    return edges_;
  }

  size_t widened() const { return widened_; }

 private:
  static Key KeyOf(const EdgeRecord& e) { return {e.src, e.dst, e.label, e.payload[0]}; }

  // Unary/mirror closure, depth first: the input edge first, then each
  // record's derivations pushed (unary results in rule order, then the
  // mirror) and popped last-in first-out, each triple once.
  std::vector<EdgeRecord> Closure(VertexId src, VertexId dst, Label label, uint8_t payload) {
    std::vector<EdgeRecord> out;
    std::vector<EdgeRecord> stack = {{src, dst, label, {payload}}};
    std::set<std::tuple<VertexId, VertexId, Label>> triples = {{src, dst, label}};
    while (!stack.empty()) {
      EdgeRecord cur = stack.back();
      stack.pop_back();
      for (Label result : grammar_.UnaryResults(cur.label)) {
        if (triples.insert({cur.src, cur.dst, result}).second) {
          stack.push_back({cur.src, cur.dst, result, cur.payload});
        }
      }
      Label mirror = grammar_.MirrorOf(cur.label);
      if (mirror != kNoLabel && triples.insert({cur.dst, cur.src, mirror}).second) {
        stack.push_back({cur.dst, cur.src, mirror, cur.payload});
      }
      out.push_back(cur);
    }
    return out;
  }

  const Grammar& grammar_;
  size_t max_variants_;
  std::vector<EdgeRecord> edges_;
  std::set<Key> seen_;
  std::map<std::tuple<VertexId, VertexId, Label>, uint32_t> variants_;
  size_t widened_ = 0;
};

struct OrderCase {
  uint64_t seed;
  size_t threads;
};

class EngineOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(EngineOrderTest, MatchesSequentialReferenceEdgeForEdge) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {"f", "g", "h"});
  // Hub-heavy random base graph over the grammar's input labels, so hubs
  // hold several buckets that combine with one label.
  std::vector<Label> inputs = {labels.new_label, labels.assign};
  for (size_t f = 0; f < labels.fields.size(); ++f) {
    inputs.push_back(labels.store[f]);
    inputs.push_back(labels.load[f]);
  }
  Rng rng(GetParam().seed);
  const VertexId kVertices = 40;
  auto vertex = [&]() -> VertexId {
    return rng.Chance(0.4) ? static_cast<VertexId>(rng.Below(4))
                           : static_cast<VertexId>(rng.Below(kVertices));
  };
  std::vector<std::tuple<VertexId, VertexId, Label>> base;
  for (int i = 0; i < 90; ++i) {
    VertexId src = vertex();
    VertexId dst = vertex();
    base.emplace_back(src, dst, inputs[rng.Below(inputs.size())]);
  }

  const size_t kMaxVariants = 2;
  ReferenceRun reference(grammar, kMaxVariants);
  std::vector<EdgeRecord> want = reference.Run(base);

  ByteOracle oracle;
  TempDir dir("engine-order");
  EngineOptions options;
  options.work_dir = dir.path();
  options.num_threads = GetParam().threads;
  options.max_variants_per_triple = kMaxVariants;
  GraphEngine engine(&grammar, &oracle, options);
  for (const auto& [src, dst, label] : base) {
    engine.AddBaseEdge(src, dst, label, PathEncoding::Empty());
  }
  engine.Finalize(kVertices);
  engine.Run();
  ASSERT_EQ(engine.stats().pair_loads, 1u) << "the reference models one in-memory pair";

  std::vector<EdgeRecord> got;
  engine.ForEachEdge([&](const EdgeRecord& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::tie(got[i].src, got[i].dst, got[i].label, got[i].payload),
              std::tie(want[i].src, want[i].dst, want[i].label, want[i].payload))
        << "edge " << i << " (seed " << GetParam().seed << ")";
  }
  EXPECT_EQ(engine.stats().widened_triples, reference.widened());
  // The case must reach the cap, or the order would only move edges.
  EXPECT_GT(reference.widened(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderTest,
                         ::testing::Values(OrderCase{1, 1}, OrderCase{2, 1}, OrderCase{3, 1},
                                           OrderCase{1, 4}, OrderCase{4, 3}));

}  // namespace
}  // namespace grapple
