#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/graph/partition_store.h"
#include "src/support/byte_io.h"

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

TEST(EdgeRecordTest, ContentHashDistinguishesPayloads) {
  EdgeRecord a = MakeEdge(1, 2, 3);
  EdgeRecord b = MakeEdge(1, 2, 3);
  b.payload[0] ^= 0xFF;
  EXPECT_NE(EdgeContentHash(a.src, a.dst, a.label, a.payload.data(), a.payload.size()),
            EdgeContentHash(b.src, b.dst, b.label, b.payload.data(), b.payload.size()));
  EXPECT_EQ(EdgeTripleHash(a.src, a.dst, a.label), EdgeTripleHash(b.src, b.dst, b.label));
}

class PartitionStoreTest : public ::testing::Test {
 protected:
  PartitionStoreTest()
      : dir_("partition-test"), runtime_(TaskRuntimeOptions{1}), store_(dir_.path(), runtime_) {}

  TempDir dir_;
  TaskRuntime runtime_;
  PartitionStore store_;
};

TEST_F(PartitionStoreTest, InitializeSplitsBySize) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 100; ++v) {
    edges.push_back(MakeEdge(v, v + 1, 1, 32));
  }
  store_.Initialize(edges, /*num_vertices=*/101, /*target_bytes=*/1024);
  EXPECT_GT(store_.NumPartitions(), 1u);
  // Intervals are contiguous and cover the space.
  VertexId expected_lo = 0;
  for (size_t i = 0; i < store_.NumPartitions(); ++i) {
    EXPECT_EQ(store_.Info(i).lo, expected_lo);
    expected_lo = store_.Info(i).hi;
  }
  EXPECT_EQ(expected_lo, 101u);
  EXPECT_EQ(store_.TotalEdges(), 100u);
}

TEST_F(PartitionStoreTest, PartitionOfFindsOwner) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 50; ++v) {
    edges.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(edges, 50, 512);
  for (VertexId v = 0; v < 50; ++v) {
    size_t p = store_.PartitionOf(v);
    EXPECT_GE(v, store_.Info(p).lo);
    EXPECT_LT(v, store_.Info(p).hi);
  }
}

TEST_F(PartitionStoreTest, LoadReturnsWrittenEdges) {
  std::vector<EdgeRecord> edges = {MakeEdge(0, 1, 1), MakeEdge(0, 2, 2), MakeEdge(1, 0, 1)};
  store_.Initialize(edges, 3, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto loaded = store_.Load(0);
  EXPECT_EQ(loaded.size(), 3u);
}

TEST_F(PartitionStoreTest, AppendAddsDeltasAndBumpsVersion) {
  store_.Initialize({MakeEdge(0, 1, 1)}, 4, 1 << 20);
  uint64_t v0 = store_.Info(0).version;
  store_.Append(0, {MakeEdge(1, 2, 2), MakeEdge(2, 3, 3)});
  EXPECT_GT(store_.Info(0).version, v0);
  EXPECT_EQ(store_.Load(0).size(), 3u);
  // Empty append is a no-op (no version bump).
  uint64_t v1 = store_.Info(0).version;
  store_.Append(0, {});
  EXPECT_EQ(store_.Info(0).version, v1);
}

TEST_F(PartitionStoreTest, RewriteReplacesContents) {
  store_.Initialize({MakeEdge(0, 1, 1), MakeEdge(1, 2, 2)}, 3, 1 << 20);
  store_.Rewrite(0, {MakeEdge(2, 0, 5)});
  auto loaded = store_.Load(0);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].label, 5);
}

TEST_F(PartitionStoreTest, SplitRedistributes) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 64; ++v) {
    edges.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(edges, 64, 1 << 20);  // one big partition
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto all = store_.Load(0);
  size_t pieces = store_.SplitAndRewrite(0, all, /*target_bytes=*/1024);
  EXPECT_GT(pieces, 1u);
  EXPECT_EQ(store_.NumPartitions(), pieces);
  EXPECT_EQ(store_.TotalEdges(), 64u);
  // Every edge landed in the partition owning its source.
  for (size_t p = 0; p < store_.NumPartitions(); ++p) {
    for (const auto& edge : store_.Load(p)) {
      EXPECT_GE(edge.src, store_.Info(p).lo);
      EXPECT_LT(edge.src, store_.Info(p).hi);
    }
  }
}

TEST_F(PartitionStoreTest, SingleVertexIntervalNeverSplits) {
  std::vector<EdgeRecord> edges;
  for (int i = 0; i < 32; ++i) {
    edges.push_back(MakeEdge(0, static_cast<VertexId>(i % 3), 1, 128));
  }
  store_.Initialize(edges, 1, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto all = store_.Load(0);
  EXPECT_EQ(store_.SplitAndRewrite(0, all, 256), 1u);
  EXPECT_EQ(store_.NumPartitions(), 1u);
}

TEST_F(PartitionStoreTest, EdgesAtVersionTracksHistory) {
  store_.Initialize({MakeEdge(0, 1, 1), MakeEdge(1, 2, 1)}, 8, 1 << 20);
  uint64_t v1 = store_.Info(0).version;
  EXPECT_EQ(store_.EdgesAtVersion(0, v1), 2u);
  EXPECT_EQ(store_.EdgesAtVersion(0, v1 - 1), 0u);  // before recorded history

  store_.Append(0, {MakeEdge(2, 3, 1)});
  uint64_t v2 = store_.Info(0).version;
  EXPECT_EQ(store_.EdgesAtVersion(0, v1), 2u);
  EXPECT_EQ(store_.EdgesAtVersion(0, v2), 3u);

  // Rewrite preserving the prefix and adding one edge.
  auto edges = store_.Load(0);
  edges.push_back(MakeEdge(3, 4, 1));
  store_.Rewrite(0, edges);
  uint64_t v3 = store_.Info(0).version;
  EXPECT_EQ(store_.EdgesAtVersion(0, v2), 3u);
  EXPECT_EQ(store_.EdgesAtVersion(0, v3), 4u);
  // Queries beyond the latest version see the full count.
  EXPECT_EQ(store_.EdgesAtVersion(0, v3 + 10), 4u);
}

TEST_F(PartitionStoreTest, SplitCarriesHistory) {
  // Three generations of content, each later one out of (src, dst) order:
  // the base layout, an appended delta, and the engine-style write-back of
  // everything loaded plus newly derived edges.
  std::vector<EdgeRecord> base;
  for (VertexId v = 0; v < 64; ++v) {
    base.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(base, 64, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  uint64_t v_init = store_.Info(0).version;
  std::vector<EdgeRecord> delta;
  for (VertexId v = 0; v < 32; ++v) {
    delta.push_back(MakeEdge(63 - 2 * v, v, 2, 48));
  }
  store_.Append(0, delta);
  uint64_t v_before = store_.Info(0).version;
  std::vector<EdgeRecord> all = store_.Load(0);
  for (VertexId v = 0; v < 40; ++v) {
    all.push_back(MakeEdge((v * 37) % 64, v, 3, 32));
  }

  using Key = std::tuple<VertexId, VertexId, Label, std::vector<uint8_t>>;
  auto key_of = [](const EdgeRecord& e) { return Key{e.src, e.dst, e.label, e.payload}; };
  const std::vector<uint64_t> parent_prefix = {store_.EdgesAtVersion(0, v_init),
                                               store_.EdgesAtVersion(0, v_before)};
  ASSERT_EQ(parent_prefix[0], 64u);
  ASSERT_EQ(parent_prefix[1], 96u);

  size_t pieces = store_.SplitAndRewrite(0, all, 1024);
  ASSERT_GT(pieces, 1u);
  ASSERT_EQ(store_.NumPartitions(), pieces);
  std::vector<uint64_t> prefix_sums(parent_prefix.size(), 0);
  for (size_t p = 0; p < pieces; ++p) {
    const PartitionInfo& info = store_.Info(p);
    // The piece holds exactly its interval's edges, in the parent's order.
    std::vector<Key> expected;
    for (const EdgeRecord& e : all) {
      if (e.src >= info.lo && e.src < info.hi) {
        expected.push_back(key_of(e));
      }
    }
    std::vector<Key> got;
    for (const EdgeRecord& e : store_.Load(p)) {
      got.push_back(key_of(e));
    }
    EXPECT_EQ(got, expected) << "piece " << p << " lost load order";
    // Each old prefix is the parent's prefix filtered to the interval.
    const uint64_t versions[] = {v_init, v_before};
    for (size_t k = 0; k < parent_prefix.size(); ++k) {
      uint64_t owned = 0;
      for (size_t e = 0; e < parent_prefix[k]; ++e) {
        owned += all[e].src >= info.lo && all[e].src < info.hi ? 1 : 0;
      }
      EXPECT_EQ(store_.EdgesAtVersion(p, versions[k]), owned)
          << "piece " << p << " version " << versions[k];
      prefix_sums[k] += store_.EdgesAtVersion(p, versions[k]);
    }
    EXPECT_EQ(store_.EdgesAtVersion(p, info.version), info.edges);
  }
  EXPECT_EQ(prefix_sums, parent_prefix);
}

TEST_F(PartitionStoreTest, EmptyGraphStillHasOnePartition) {
  store_.Initialize({}, 10, 1024);
  EXPECT_EQ(store_.NumPartitions(), 1u);
  EXPECT_EQ(store_.Info(0).lo, 0u);
  EXPECT_EQ(store_.Info(0).hi, 10u);
  EXPECT_TRUE(store_.Load(0).empty());
}

}  // namespace
}  // namespace grapple
