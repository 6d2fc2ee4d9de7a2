#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>

#include "src/support/byte_io.h"
#include "src/support/flat_hash.h"
#include "src/support/lru_cache.h"
#include "src/support/rng.h"
#include "src/support/task_runtime.h"
#include "src/support/timer.h"

namespace grapple {
namespace {

TEST(FlatHashTest, SetAndMapMatchAReferenceAcrossGrowth) {
  FlatHashSet64 set;
  FlatHashMap64 map;
  std::set<uint64_t> ref_set;
  std::map<uint64_t, uint32_t> ref_map;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Small key range so keys repeat; key 0 (the empty-slot sentinel) too.
    uint64_t key = rng.Below(8) == 0 ? rng.Below(4) : rng.Next() % 6000 * 0x10001;
    EXPECT_EQ(set.Insert(key), ref_set.insert(key).second);
    ++map[key];
    ++ref_map[key];
    uint64_t probe = rng.Next() % 6000 * 0x10001;
    EXPECT_EQ(set.Contains(probe), ref_set.count(probe) > 0);
  }
  EXPECT_EQ(set.size(), ref_set.size());
  EXPECT_EQ(map.size(), ref_map.size());
  std::vector<uint64_t> keys;
  set.ForEach([&](uint64_t key) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, std::vector<uint64_t>(ref_set.begin(), ref_set.end()));
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  map.ForEach([&](uint64_t key, uint32_t value) { entries.emplace_back(key, value); });
  std::sort(entries.begin(), entries.end());
  std::vector<std::pair<uint64_t, uint32_t>> ref_entries(ref_map.begin(), ref_map.end());
  EXPECT_EQ(entries, ref_entries);
  // Reserve keeps contents.
  set.Reserve(100000);
  map.Reserve(100000);
  EXPECT_EQ(set.size(), ref_set.size());
  EXPECT_TRUE(set.Contains(keys.back()));
  EXPECT_EQ(map[entries.back().first], entries.back().second);
}

TEST(ByteIoTest, VarintRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384, (uint64_t{1} << 32) + 7,
                                  UINT64_MAX};
  std::vector<uint8_t> buffer;
  for (uint64_t v : values) {
    PutVarint64(&buffer, v);
  }
  ByteReader reader(buffer);
  for (uint64_t v : values) {
    EXPECT_EQ(reader.GetVarint64(), v);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, SignedVarintRoundTrip) {
  std::vector<int64_t> values = {0, -1, 1, -64, 64, -9999999, INT64_MAX, INT64_MIN};
  std::vector<uint8_t> buffer;
  for (int64_t v : values) {
    PutVarintSigned64(&buffer, v);
  }
  ByteReader reader(buffer);
  for (int64_t v : values) {
    EXPECT_EQ(reader.GetVarintSigned64(), v);
  }
  EXPECT_TRUE(reader.ok());
}

TEST(ByteIoTest, FixedWidthRoundTrip) {
  std::vector<uint8_t> buffer;
  PutFixed32(&buffer, 0xDEADBEEF);
  PutFixed64(&buffer, 0x0123456789ABCDEFULL);
  ByteReader reader(buffer);
  EXPECT_EQ(reader.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.GetFixed64(), 0x0123456789ABCDEFULL);
}

// The string overloads write the same little-endian bytes the vector
// overloads do (GPRF profiles and GFR1 flight recordings use them).
TEST(ByteIoTest, FixedWidthStringMatchesVector) {
  std::vector<uint8_t> bytes;
  std::string text;
  PutFixed32(&bytes, 0xDEADBEEF);
  PutFixed64(&bytes, 0x0123456789ABCDEFULL);
  PutFixed32(&text, 0xDEADBEEF);
  PutFixed64(&text, 0x0123456789ABCDEFULL);
  ASSERT_EQ(std::string(bytes.begin(), bytes.end()), text);
  EXPECT_EQ(DecodeFixed32(bytes.data()), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(bytes.data() + 4), 0x0123456789ABCDEFULL);
}

// Both offset bases are pinned: partition blocks and GPRF profiles use the
// standard one, checkpoint manifests the one-digit-short one. Changing
// either would make existing files fail their checksums.
TEST(ByteIoTest, Fnv1a64PinsBothBases) {
  EXPECT_EQ(kFnv1a64Basis, 14695981039346656037ULL);
  EXPECT_EQ(kFnv1a64ShortBasis, 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("a", 1, kFnv1a64ShortBasis), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a64("foobar", 6, kFnv1a64ShortBasis), 0x88fad7c0a8ff07f2ULL);
  // Chaining through the seed hashes the concatenation.
  EXPECT_EQ(Fnv1a64("bar", 3, Fnv1a64("foo", 3, kFnv1a64ShortBasis)),
            Fnv1a64("foobar", 6, kFnv1a64ShortBasis));
}

TEST(ByteIoTest, ReaderPoisonsOnUnderrun) {
  std::vector<uint8_t> buffer = {0x80};  // truncated varint
  ByteReader reader(buffer);
  reader.GetVarint64();
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.GetFixed32(), 0u);  // stays poisoned
}

TEST(ByteIoTest, FileRoundTripAndAppend) {
  TempDir dir("byteio-test");
  std::string path = dir.File("data.bin");
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(WriteFileBytes(path, {1, 2, 3}));
  EXPECT_TRUE(AppendFileBytes(path, {4, 5}));
  EXPECT_EQ(FileSizeBytes(path), 5);
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(RemoveFile(path));
  EXPECT_FALSE(FileExists(path));
}

TEST(ByteIoTest, TempDirRemovedOnDestruction) {
  std::string path;
  {
    TempDir dir("byteio-scope");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    WriteFileBytes(dir.File("x"), {1});
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(cache.Get(1), std::optional<int>(10));  // 1 becomes MRU
  cache.Put(3, 30);                                 // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1), std::optional<int>(10));
  EXPECT_EQ(cache.Get(3), std::optional<int>(30));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, HitRateStats) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  cache.Get(1);
  cache.Get(1);
  cache.Get(2);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.HitRate(), 2.0 / 3.0, 1e-9);
}

TEST(LruCacheTest, OverwriteKeepsSize) {
  LruCache<int, int> cache(2);
  cache.Put(1, 1);
  cache.Put(1, 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1), std::optional<int>(2));
}

// Sharded fan-out over a range via TaskGroup, the pattern the engine's
// join loop uses. Deeper scheduler coverage lives in task_runtime_test.cc.
TEST(TaskRuntimeTest, GroupFanOutCoversRange) {
  TaskRuntimeOptions options;
  options.workers = 4;
  TaskRuntime runtime(options);
  constexpr size_t kItems = 1000;
  constexpr size_t kShards = 4;
  constexpr size_t kChunk = (kItems + kShards - 1) / kShards;
  std::atomic<int64_t> sum{0};
  TaskGroup group(&runtime);
  for (size_t shard = 0; shard < kShards; ++shard) {
    size_t begin = shard * kChunk;
    size_t end = std::min(kItems, begin + kChunk);
    group.Submit(TaskLane::kForeground, /*affinity=*/0, [&, begin, end] {
      int64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += static_cast<int64_t>(i);
      }
      sum.fetch_add(local);
    });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(TaskRuntimeTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    TaskRuntimeOptions options;
    options.workers = 2;
    TaskRuntime runtime(options);
    for (int i = 0; i < 50; ++i) {
      runtime.Submit(TaskLane::kWriteBehind, /*affinity=*/0, [&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(TimerTest, FormatDurationMatchesPaperStyle) {
  EXPECT_EQ(FormatDuration(47), "47s");
  EXPECT_EQ(FormatDuration(51 * 60 + 49), "51m49s");
  EXPECT_EQ(FormatDuration(3600 + 6 * 60 + 15), "01h06m15s");
  EXPECT_EQ(FormatDuration(33 * 3600 + 42 * 60 + 8), "33h42m08s");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

}  // namespace
}  // namespace grapple
