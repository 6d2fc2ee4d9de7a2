// Robustness of on-disk state: truncated or bit-flipped partition and
// provenance files must surface a descriptive error (what, which file,
// which offset) instead of garbage edges or undefined behavior. Kept as its
// own test binary: corruption scenarios deliberately exercise failure paths
// that are easiest to reason about in isolation from thread-spawning suites.
#include <gtest/gtest.h>

#include "src/graph/partition_codec.h"
#include "src/graph/partition_store.h"
#include "src/obs/provenance.h"
#include "src/support/byte_io.h"

namespace grapple {
namespace {

EdgeRecord MakeEdge(VertexId src, VertexId dst, Label label, size_t payload_size = 8) {
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload.assign(payload_size, static_cast<uint8_t>(src + dst + label));
  return edge;
}

std::vector<uint8_t> EncodeBlockFile(const std::vector<EdgeRecord>& edges) {
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(edges, &file);
  return file;
}

std::vector<EdgeRecord> SampleEdges() {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 32; ++v) {
    edges.push_back(MakeEdge(v, v + 2, 1 + v % 3));
  }
  return edges;
}

TEST(PartitionCorruptionTest, TruncatedBlockFileNamesPathAndOffset) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file.resize(file.size() / 2);
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("p.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("truncated"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("p.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, BitFlipInBodyReportsChecksumMismatch) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file[file.size() / 2] ^= 0x40;  // flip a bit inside the block body
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("flipped.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("checksum mismatch"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("flipped.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, UnknownFormatVersionIsRejected) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file[4] = 99;
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("vnext.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("version 99"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, CorruptLengthCannotDriveHugeAllocation) {
  // The block header sits outside the checksum. A block that claims 2^40
  // edges and payloads over a few body bytes (with a valid checksum) must
  // fail cleanly instead of reserving a terabyte-scale payload table.
  std::vector<uint8_t> body = {0, 1, 0xAB};
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  PutVarint64(&file, uint64_t{1} << 40);  // edge count
  PutVarint64(&file, uint64_t{1} << 40);  // payload count
  PutVarint64(&file, body.size());
  file.insert(file.end(), body.begin(), body.end());
  PutFixed64(&file, Fnv1a64(body.data(), body.size()));
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("huge.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("implausible block header"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("huge.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset " + std::to_string(kBlockFileHeaderSize)),
            std::string::npos)
      << status.error;
}

class StoreCorruptionTest : public ::testing::Test {
 protected:
  StoreCorruptionTest() : dir_("corrupt-store"), runtime_(TaskRuntimeOptions{1}) {}

  // A one-partition store whose file has been written to disk.
  void InitializeOnePartition(PartitionStore* store) {
    store->Initialize(SampleEdges(), 40, 1 << 20);
    ASSERT_EQ(store->NumPartitions(), 1u);
    store->Sync();
  }

  // Drops the partition's write-back cache image (an append invalidates
  // it), so the next Load decodes the file on disk.
  void ForceDiskLoad(PartitionStore* store) {
    store->Append(0, {MakeEdge(1, 9, 1)});
  }

  // Load(0) must throw a catchable IoError (not abort), so the facade can
  // isolate the failing checker instead of taking down a multi-checker
  // run. Returns its message.
  std::string LoadError(PartitionStore* store) {
    try {
      store->Load(0);
    } catch (const IoError& e) {
      return e.what();
    }
    ADD_FAILURE() << "Load of a corrupt partition file did not throw";
    return std::string();
  }

  TempDir dir_;
  TaskRuntime runtime_;
};

TEST_F(StoreCorruptionTest, StoreLoadThrowsDiagnosticOnCorruptFile) {
  PartitionStore store(dir_.path(), runtime_);
  InitializeOnePartition(&store);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(store.Info(0).path, &bytes));
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit inside the block body
  ASSERT_TRUE(WriteFileBytes(store.Info(0).path, bytes));
  ForceDiskLoad(&store);
  std::string what = LoadError(&store);
  EXPECT_NE(what.find("partition file corrupt"), std::string::npos) << what;
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find(store.Info(0).path), std::string::npos) << what;
}

// Partition files have one format. A file without the block-format header
// (e.g. a bare varint record stream) is refused with an error naming the
// file, never guessed at.
TEST_F(StoreCorruptionTest, HeaderlessFileFailsLoadNamingPath) {
  PartitionStore store(dir_.path(), runtime_);
  InitializeOnePartition(&store);
  std::vector<uint8_t> headerless;
  for (const EdgeRecord& edge : SampleEdges()) {
    PutVarint64(&headerless, edge.src);
    PutVarint64(&headerless, edge.dst);
    PutVarint64(&headerless, edge.label);
    PutVarint64(&headerless, edge.payload.size());
    headerless.insert(headerless.end(), edge.payload.begin(), edge.payload.end());
  }
  ASSERT_TRUE(WriteFileBytes(store.Info(0).path, headerless));
  ForceDiskLoad(&store);
  std::string what = LoadError(&store);
  EXPECT_NE(what.find("no GRPB header"), std::string::npos) << what;
  EXPECT_NE(what.find(store.Info(0).path), std::string::npos) << what;
}

TEST(PartitionCorruptionTest, TornProvenanceTailKeepsParsedPrefix) {
  TempDir dir("corrupt-prov");
  std::string path = dir.File("provenance.bin");
  {
    obs::ProvenanceWriter writer(path, nullptr);
    obs::ProvEdge e;
    e.src = 1;
    e.dst = 2;
    e.label = 3;
    uint8_t payload[4] = {1, 2, 3, 4};
    writer.RecordBase(0x1111, e, payload, sizeof(payload));
    writer.RecordBase(0x2222, e, payload, sizeof(payload));
    ASSERT_TRUE(writer.Flush());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  bytes.resize(bytes.size() - 5);  // tear the last record
  ASSERT_TRUE(WriteFileBytes(path, bytes));

  obs::ProvenanceReader reader;
  EXPECT_FALSE(reader.Open(path));  // corruption reported...
  EXPECT_GE(reader.NumRecords(), 1u);  // ...but the intact prefix survives
  EXPECT_NE(reader.Lookup(0x1111), nullptr);
}

}  // namespace
}  // namespace grapple
