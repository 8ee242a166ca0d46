// Tests for the out-of-core storage layer (src/storage/): block-file
// round-trips across every encoding and payload class, footer zone maps and
// the ZoneCouldMatch pruning test, the fixed-budget BlockCache (LRU, pins,
// singleflight, external-charge refusal), the storage failpoints
// (storage:block_read / storage:block_corrupt / storage:spill_write), and a
// differential fuzz arm proving zone-map pruning never drops a θ-matching
// row. The out-of-core MD-join driver itself is covered by
// out_of_core_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_guard.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "storage/spill.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::BitEq;
using testutil::S;
using testutil::TablesBitIdentical;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Unique temp path for one test, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::filesystem::temp_directory_path().string() +
              "/mdjoin_storage_test_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Round-trips `table` through a block file and asserts bit identity.
void RoundTrip(const Table& table, int64_t block_size_rows,
               const std::string& tag) {
  TempFile file(tag);
  BlockFileOptions options;
  options.block_size_rows = block_size_rows;
  ASSERT_TRUE(WriteBlockFile(table, file.path(), options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(file.path());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->num_rows(), table.num_rows());
  Result<Table> read = (*paged)->ReadAll(nullptr);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(table, *read));
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

// ---------------------------------------------------------------------------
// Block-file round-trips

TEST_F(StorageTest, RoundTripSmallSales) {
  RoundTrip(testutil::SmallSales(), 5, "small_sales");
}

TEST_F(StorageTest, RoundTripEveryPayloadClass) {
  // One column mixing every Value variant, including bit-pattern landmines:
  // NaN, ±inf, -0.0, the empty string, and embedded NULs. Built with
  // AppendRowUnchecked: decoded blocks are plain Value columns, so the codec
  // must round-trip cells whose class differs from the declared column type.
  Table t(Schema({{"v", DataType::kFloat64}}));
  t.AppendRowUnchecked({NUL()});
  t.AppendRowUnchecked({ALL()});
  t.AppendRowUnchecked({I(-42)});
  t.AppendRowUnchecked({F(kNaN)});
  t.AppendRowUnchecked({F(kInf)});
  t.AppendRowUnchecked({F(-kInf)});
  t.AppendRowUnchecked({F(-0.0)});
  t.AppendRowUnchecked({F(0.0)});
  t.AppendRowUnchecked({S("")});
  t.AppendRowUnchecked({S(std::string("a\0b", 3))});
  RoundTrip(t, 3, "payload_classes");
}

TEST_F(StorageTest, RoundTripEmptyTable) {
  RoundTrip(Table(testutil::SalesSchema()), 4, "empty");
}

TEST_F(StorageTest, RoundTripSingleRow) {
  TableBuilder b({{"x", DataType::kInt64}, {"s", DataType::kString}});
  b.AppendRowOrDie({I(7), S("one")});
  RoundTrip(std::move(b).Finish(), 4096, "single_row");
}

TEST_F(StorageTest, RoundTripLastBlockShort) {
  // 10 rows at 4 per block: the last block holds 2 rows.
  Table sales = testutil::RandomSales(7, 10);
  TempFile file("short_tail");
  BlockFileOptions options;
  options.block_size_rows = 4;
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(file.path());
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ((*paged)->num_blocks(), 3);
  EXPECT_EQ((*paged)->block_meta(2).num_rows, 2);
  Result<BlockPin> tail = (*paged)->Fault(2, nullptr);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->table().num_rows(), 2);
  EXPECT_TRUE(BitEq(tail->table().Get(1, 0), sales.Get(9, 0)));
}

TEST_F(StorageTest, WriterPicksExpectedEncodings) {
  // Column layout engineered per encoding: a pure-int64 column (kForInt), a
  // low-cardinality string column (kDict), a long-runs float column (kRle —
  // float so the all-int64 kForInt rule does not preempt it), and a
  // high-entropy mixed column (kPlain).
  Table t(Schema({{"ints", DataType::kInt64},
                  {"dict", DataType::kString},
                  {"runs", DataType::kFloat64},
                  {"mix", DataType::kFloat64}}));
  for (int64_t i = 0; i < 64; ++i) {
    t.AppendRowUnchecked(
        {I(1000000 + i * 3), S(i % 2 == 0 ? "NY" : "CA"),
         F(i < 32 ? 1.5 : 2.5),
         i % 3 == 0 ? F(0.5 * static_cast<double>(i))
                    : S("s" + std::to_string(i))});
  }
  TempFile file("encodings");
  BlockFileOptions options;
  options.block_size_rows = 64;
  ASSERT_TRUE(WriteBlockFile(t, file.path(), options).ok());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok());
  const BlockMeta& meta = (*f)->block_meta(0);
  ASSERT_EQ(meta.chunks.size(), 4u);
  EXPECT_EQ(meta.chunks[0].encoding, BlockEncoding::kForInt);
  EXPECT_EQ(meta.chunks[1].encoding, BlockEncoding::kDict);
  EXPECT_EQ(meta.chunks[2].encoding, BlockEncoding::kRle);
  EXPECT_EQ(meta.chunks[3].encoding, BlockEncoding::kPlain);
  Result<Table> read = (*f)->ReadBlock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(TablesBitIdentical(t, *read));
}

TEST_F(StorageTest, ZoneMapsSummarizeEachBlock) {
  Table t(Schema({{"x", DataType::kFloat64}}));
  // Block 0: numerics 1..4. Block 1: NULL, ALL, NaN, string.
  for (int i = 1; i <= 4; ++i) t.AppendRowUnchecked({F(i)});
  t.AppendRowUnchecked({NUL()});
  t.AppendRowUnchecked({ALL()});
  t.AppendRowUnchecked({F(kNaN)});
  t.AppendRowUnchecked({S("zebra")});
  TempFile file("zones");
  BlockFileOptions options;
  options.block_size_rows = 4;
  ASSERT_TRUE(WriteBlockFile(t, file.path(), options).ok());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok());
  const ColumnZoneMap& z0 = (*f)->zones()[0][0];
  EXPECT_DOUBLE_EQ(z0.num_min, 1.0);
  EXPECT_DOUBLE_EQ(z0.num_max, 4.0);
  EXPECT_EQ(z0.numeric_count, 4);
  EXPECT_EQ(z0.null_count + z0.all_count + z0.nan_count + z0.string_count, 0);
  const ColumnZoneMap& z1 = (*f)->zones()[1][0];
  EXPECT_EQ(z1.numeric_count, 0);
  EXPECT_EQ(z1.null_count, 1);
  EXPECT_EQ(z1.all_count, 1);
  EXPECT_EQ(z1.nan_count, 1);
  EXPECT_EQ(z1.string_count, 1);
  EXPECT_EQ(z1.str_min, "zebra");
  EXPECT_EQ(z1.str_max, "zebra");
}

TEST_F(StorageTest, OpenRejectsGarbage) {
  TempFile file("garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "this is not a block file";
  }
  EXPECT_FALSE(BlockFile::Open(file.path()).ok());
  EXPECT_FALSE(BlockFile::Open(file.path() + ".does_not_exist").ok());
}

/// The bytes of the file at `path`.
std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Two 8-row blocks whose four chunks take every encoding, over NULL, ALL,
/// NaN and ±0 cells: k (kForInt), s (kDict), r (kRle, runs of +0.0 and
/// -0.0) and m (kPlain).
Table EveryEncodingTable() {
  Table t(Schema({{"k", DataType::kInt64},
                  {"s", DataType::kString},
                  {"r", DataType::kFloat64},
                  {"m", DataType::kFloat64}}));
  const std::vector<Value> mixed = {F(kNaN), NUL(), ALL(), S("x"),
                                    I(3),    F(-0.0), F(2.5), S("")};
  for (int64_t i = 0; i < 16; ++i) {
    Value s = i % 4 == 0 ? NUL() : i % 4 == 1 ? ALL() : S(i % 2 == 0 ? "NY" : "CA");
    Value r = i < 8 ? F(i < 4 ? 0.0 : -0.0) : F(i < 12 ? 1.5 : kNaN);
    t.AppendRowUnchecked({I(100 + i % 5), std::move(s), std::move(r),
                          mixed[static_cast<size_t>((i * 3) % 8)]});
  }
  return t;
}

TEST_F(StorageTest, ReadBlockDecodesTheNamedColumnsOnly) {
  const Table sales = testutil::RandomSales(13, 40);
  TempFile file("projection");
  BlockFileOptions options;
  options.block_size_rows = 16;
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), options).ok());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Result<Table> two = (*f)->ReadBlock(1, {0, 5});
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_EQ(two->num_columns(), 2);
  EXPECT_EQ(two->schema().field(0).name, "cust");
  EXPECT_EQ(two->schema().field(1).name, "state");
  ASSERT_EQ(two->num_rows(), 16);
  for (int64_t r = 0; r < 16; ++r) {
    EXPECT_TRUE(BitEq(two->Get(r, 0), sales.Get(16 + r, 0)));
    EXPECT_TRUE(BitEq(two->Get(r, 1), sales.Get(16 + r, 5)));
  }
  Result<Table> all = (*f)->ReadBlock(1);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(TablesBitIdentical(*all, *(*f)->ReadBlock(1, (*f)->all_columns())));
  EXPECT_EQ(all->schema().num_fields(), 7);
  for (const std::vector<int>& bad : std::vector<std::vector<int>>{{}, {5, 0}, {0, 0}, {7}, {-1}}) {
    Result<Table> refused = (*f)->ReadBlock(1, bad);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(StorageTest, OpenRejectsAnotherFormatVersion) {
  TempFile file("version");
  ASSERT_TRUE(WriteBlockFile(testutil::SmallSales(), file.path(), {}).ok());
  std::string bytes = FileBytes(file.path());
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  WriteBytes(file.path(), bytes);
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_FALSE(f.ok());
  EXPECT_NE(f.status().message().find("version 1 unsupported"), std::string::npos)
      << f.status().ToString();
}

TEST_F(StorageTest, ChecksumsDetectEveryBitFlip) {
  // The hash itself, over every length around a word boundary.
  for (size_t len = 1; len <= 24; ++len) {
    std::string data(len, '\0');
    for (size_t i = 0; i < len; ++i) data[i] = static_cast<char>(i * 37 + 11);
    const uint64_t sum = BlockChecksum(data.data(), data.size());
    for (size_t bit = 0; bit < 8 * len; ++bit) {
      data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
      EXPECT_NE(BlockChecksum(data.data(), data.size()), sum) << len << " " << bit;
      data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    }
  }
  // Every bit of the chunk and of the footer of a one-chunk file (the
  // kPlain column of EveryEncodingTable's first block).
  const Table every = EveryEncodingTable();
  Table t(Schema({every.schema().field(3)}));
  for (int64_t r = 0; r < 8; ++r) t.AppendRowUnchecked({every.Get(r, 3)});
  TempFile file("bits");
  TempFile flipped("bits_flipped");
  ASSERT_TRUE(WriteBlockFile(t, file.path(), {}).ok());
  const std::string bytes = FileBytes(file.path());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ((*f)->num_blocks(), 1);
  const ChunkMeta& chunk = (*f)->block_meta(0).chunks[0];
  const size_t footer = chunk.offset + chunk.length;
  ASSERT_LT(footer, bytes.size());
  for (size_t i = chunk.offset; i < chunk.offset + chunk.length; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string copy = bytes;
      copy[i] ^= static_cast<char>(1 << bit);
      WriteBytes(flipped.path(), copy);
      Result<std::unique_ptr<BlockFile>> g = BlockFile::Open(flipped.path());
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      Result<Table> read = (*g)->ReadBlock(0);
      ASSERT_FALSE(read.ok()) << "chunk byte " << i << " bit " << bit;
      EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
    }
  }
  for (size_t i = footer; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string copy = bytes;
      copy[i] ^= static_cast<char>(1 << bit);
      WriteBytes(flipped.path(), copy);
      EXPECT_FALSE(BlockFile::Open(flipped.path()).ok()) << "byte " << i << " bit " << bit;
    }
  }
}

// Flipping any one byte of a small file either fails Open (a header,
// footer or trailer byte) or fails every read of the one chunk it lies in
// with a checksum Status, while reads of the block's other columns and
// joins over them return the reference answer — through a guard, a block
// cache and spill, leaking no pin, guard byte or spill file.
TEST_F(StorageTest, EveryByteFlipFailsCleanlyOrSparesTheOtherColumns) {
  const Table t = EveryEncodingTable();
  TempFile file("flip_src");
  TempFile flipped("flip");
  BlockFileOptions options;
  options.block_size_rows = 8;
  ASSERT_TRUE(WriteBlockFile(t, file.path(), options).ok());
  const std::string bytes = FileBytes(file.path());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ((*f)->num_blocks(), 2);
  const int ncols = t.num_columns();
  std::vector<std::pair<int, int>> owner(bytes.size(), {-1, -1});  // (block, column)
  for (int b = 0; b < 2; ++b) {
    const std::vector<ChunkMeta>& chunks = (*f)->block_meta(b).chunks;
    const std::vector<BlockEncoding> encodings = {BlockEncoding::kForInt, BlockEncoding::kDict,
                                                  BlockEncoding::kRle, BlockEncoding::kPlain};
    for (int c = 0; c < ncols; ++c) {
      const ChunkMeta& chunk = chunks[static_cast<size_t>(c)];
      EXPECT_EQ(chunk.encoding, encodings[static_cast<size_t>(c)]) << b << " " << c;
      for (uint64_t i = chunk.offset; i < chunk.offset + chunk.length; ++i) owner[i] = {b, c};
    }
  }

  // Per column x, a join reading x alone: B is x's cells, θ B.x = R.x.
  std::vector<Table> bases;
  std::vector<ExprPtr> thetas;
  std::vector<Table> expects;
  for (int c = 0; c < ncols; ++c) {
    Table base(Schema({{"x", t.schema().field(c).type}}));
    for (int64_t r = 0; r < t.num_rows(); ++r) base.AppendRowUnchecked({t.Get(r, c)});
    thetas.push_back(Eq(RCol(t.schema().field(c).name), BCol("x")));
    Result<Table> expect = MdJoinReference(base, t, {Count("n")}, thetas.back());
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    bases.push_back(std::move(base));
    expects.push_back(std::move(*expect));
  }
  const std::string spill_dir =
      std::filesystem::temp_directory_path().string() + "/mdjoin_storage_flip_spill";
  std::filesystem::create_directories(spill_dir);

  int64_t chunk_flips = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "byte " << i << " of " << bytes.size());
    std::string copy = bytes;
    copy[i] = static_cast<char>(~copy[i]);
    WriteBytes(flipped.path(), copy);
    Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(flipped.path());
    const auto [b, c] = owner[i];
    if (b < 0) {
      EXPECT_FALSE(paged.ok());
      continue;
    }
    ++chunk_flips;
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    Result<BlockPin> bad = (*paged)->Fault(b, {c}, nullptr);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
    std::vector<int> others;
    for (int x = 0; x < ncols; ++x) {
      if (x != c) others.push_back(x);
    }
    Result<BlockPin> rest = (*paged)->Fault(b, others, nullptr);
    ASSERT_TRUE(rest.ok()) << rest.status().ToString();
    for (size_t k = 0; k < others.size(); ++k) {
      for (int64_t r = 0; r < 8; ++r) {
        EXPECT_TRUE(BitEq(rest->table().Get(r, static_cast<int>(k)),
                          t.Get(8 * b + r, others[k])));
      }
    }

    BlockCache cache(BlockCache::Options{});
    for (int x = 0; x < ncols; ++x) {
      QueryGuardOptions goptions;
      goptions.memory_hard_limit_bytes = int64_t{1} << 30;
      QueryGuard guard(goptions);
      MdJoinOptions md;
      md.guard = &guard;
      md.block_cache = &cache;
      md.enable_spill = true;
      md.spill_partitions = 2;
      md.spill_dir = spill_dir;
      Result<Table> got = PagedMdJoin(bases[static_cast<size_t>(x)], **paged, {Count("n")},
                                      thetas[static_cast<size_t>(x)], md);
      if (x == c) {
        ASSERT_FALSE(got.ok());
        EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
      } else {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(TablesBitIdentical(expects[static_cast<size_t>(x)], *got));
      }
      EXPECT_EQ(guard.bytes_reserved(), 0);
    }
    cache.EvictBytes(std::numeric_limits<int64_t>::max());
    EXPECT_EQ(cache.resident_bytes(), 0);  // no pin outlived its query
    EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  }
  EXPECT_GT(chunk_flips, 0);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// ---------------------------------------------------------------------------
// Failpoints: mid-scan I/O errors surface as clean Status

TEST_F(StorageTest, BlockReadFailpointSurfacesCleanStatus) {
  Table sales = testutil::SmallSales();
  TempFile file("read_fp");
  BlockFileOptions options;
  options.block_size_rows = 4;
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), options).ok());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok());
  FailpointRegistry::Global()->Enable("storage:block_read", /*count=*/1);
  Result<Table> read = (*f)->ReadBlock(0);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  // The failpoint consumed its budget: the retry decodes fine.
  Result<Table> retry = (*f)->ReadBlock(0);
  EXPECT_TRUE(retry.ok());
}

TEST_F(StorageTest, ChecksumCorruptionDetected) {
  Table sales = testutil::SmallSales();
  TempFile file("corrupt_fp");
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), {}).ok());
  Result<std::unique_ptr<BlockFile>> f = BlockFile::Open(file.path());
  ASSERT_TRUE(f.ok());
  FailpointRegistry::Global()->Enable("storage:block_corrupt", /*count=*/1);
  Result<Table> read = (*f)->ReadBlock(0);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  EXPECT_NE(read.status().ToString().find("checksum"), std::string::npos);
}

TEST_F(StorageTest, MidScanReadErrorFailsQueryWithoutLeaks) {
  // A paged MD-join whose second block read fails must return the I/O error
  // (no partial result) and leave zero bytes pinned in the cache and zero
  // bytes reserved on the guard.
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  TempFile file("scan_fp");
  BlockFileOptions foptions;
  foptions.block_size_rows = 3;
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), foptions).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(file.path());
  ASSERT_TRUE(paged.ok());

  BlockCache cache(BlockCache::Options{});
  QueryGuardOptions goptions;
  goptions.memory_hard_limit_bytes = 1 << 30;
  QueryGuard guard(goptions);
  MdJoinOptions md;
  md.guard = &guard;
  md.block_cache = &cache;
  FailpointRegistry::Global()->Enable("storage:block_read", /*count=*/1,
                                      /*skip=*/1);
  Result<Table> out = PagedMdJoin(*base, **paged, {Count("n")},
                                  Eq(RCol("cust"), BCol("cust")), md);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(guard.bytes_reserved(), 0);
  // Everything the failed query faulted is unpinned: fully evictable.
  cache.EvictBytes(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(cache.resident_bytes(), 0);
  FailpointRegistry::Global()->Reset();
  Result<Table> ok = PagedMdJoin(*base, **paged, {Count("n")},
                                 Eq(RCol("cust"), BCol("cust")), md);
  EXPECT_TRUE(ok.ok());
}

TEST_F(StorageTest, SpillWriteFailpointSurfacesCleanStatus) {
  QueryGuard guard(QueryGuardOptions{});
  TempFile file("spill_fp");
  Result<std::unique_ptr<SpillWriter>> writer =
      SpillWriter::Create(file.path(), 7, &guard);
  ASSERT_TRUE(writer.ok());
  Table sales = testutil::SmallSales();
  FailpointRegistry::Global()->Enable("storage:spill_write", /*count=*/1);
  Status status = Status::OK();
  for (int64_t r = 0; r < sales.num_rows() && status.ok(); ++r) {
    status = (*writer)->AppendRow(sales, r);
  }
  if (status.ok()) status = (*writer)->Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  writer->reset();  // destroying the writer releases its buffer reservation
  EXPECT_EQ(guard.bytes_reserved(), 0);
}

TEST_F(StorageTest, SpillJoinCleansUpFilesOnWriteError) {
  Table sales = testutil::RandomSales(11, 300);
  Result<Table> base = GroupByBase(sales, {"cust"});
  ASSERT_TRUE(base.ok());
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/mdjoin_spill_fp_test";
  std::filesystem::create_directories(dir);
  MdJoinOptions md;
  md.spill_dir = dir;
  md.spill_partitions = 4;
  FailpointRegistry::Global()->Enable("storage:spill_write", /*count=*/1);
  MdJoinStats stats;
  Result<Table> out = SpillMdJoin(*base, TableSource(sales), {Count("n")},
                                  Eq(RCol("cust"), BCol("cust")), md, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  // The janitor removed every partition file despite the error.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// BlockCache

/// The column set the single-column test blocks are cached under.
const std::vector<int> kCol0 = {0};

Result<Table> MakeBlock(int64_t tag) {
  TableBuilder b({{"x", DataType::kInt64}});
  b.AppendRowOrDie({I(tag)});
  return std::move(b).Finish();
}

TEST_F(StorageTest, CacheHitsServeResidentBlocks) {
  BlockCache::Options options;
  options.capacity_bytes = 1 << 20;
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  int loads = 0;
  auto loader = [&]() {
    ++loads;
    return MakeBlock(1);
  };
  bool hit = true;
  Result<BlockPin> a = cache.GetOrLoad(id, 0, kCol0, 100, loader, &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  a->Release();
  Result<BlockPin> b = cache.GetOrLoad(id, 0, kCol0, 100, loader, &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(StorageTest, CacheEvictsLruWithinBudget) {
  BlockCache::Options options;
  options.capacity_bytes = 250;  // room for two 100-byte blocks
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  for (int block = 0; block < 3; ++block) {
    Result<BlockPin> pin =
        cache.GetOrLoad(id, block, kCol0, 100, [&] { return MakeBlock(block); });
    ASSERT_TRUE(pin.ok());
  }
  EXPECT_LE(cache.resident_bytes(), 250);
  EXPECT_GE(cache.stats().evictions, 1);
  // Block 0 was the coldest: reloading it is a miss, the hottest is a hit.
  bool hit = false;
  Result<BlockPin> back =
      cache.GetOrLoad(id, 2, kCol0, 100, [&] { return MakeBlock(2); }, &hit);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(hit);
  Result<BlockPin> cold =
      cache.GetOrLoad(id, 0, kCol0, 100, [&] { return MakeBlock(0); }, &hit);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(hit);
}

TEST_F(StorageTest, PinnedBlocksAreNotEvictable) {
  BlockCache::Options options;
  options.capacity_bytes = 150;
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  Result<BlockPin> pinned =
      cache.GetOrLoad(id, 0, kCol0, 100, [&] { return MakeBlock(0); });
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(cache.EvictBytes(1000), 0);  // the only entry is pinned
  EXPECT_EQ(cache.resident_bytes(), 100);
  pinned->Release();
  EXPECT_EQ(cache.EvictBytes(1000), 100);
  EXPECT_EQ(cache.resident_bytes(), 0);
}

TEST_F(StorageTest, ChargeRefusalFallsBackToEphemeralPin) {
  // The external pool refuses everything: blocks must still be served, as
  // ephemeral pins that never enter the cache.
  BlockCache::Options options;
  options.capacity_bytes = 1 << 20;
  options.charge = [](int64_t) { return false; };
  options.release = [](int64_t) {};
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  bool hit = true;
  Result<BlockPin> pin =
      cache.GetOrLoad(id, 0, kCol0, 100, [&] { return MakeBlock(42); }, &hit);
  ASSERT_TRUE(pin.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(pin->table().Get(0, 0).int64(), 42);
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_EQ(cache.stats().ephemeral_loads, 1);
  // Not resident: the next lookup is another miss.
  Result<BlockPin> again =
      cache.GetOrLoad(id, 0, kCol0, 100, [&] { return MakeBlock(42); }, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(hit);
}

TEST_F(StorageTest, ExternalChargesBalanceOnDestruction) {
  std::atomic<int64_t> pool{0};
  {
    BlockCache::Options options;
    options.capacity_bytes = 250;
    options.charge = [&](int64_t bytes) {
      pool.fetch_add(bytes);
      return true;
    };
    options.release = [&](int64_t bytes) { pool.fetch_sub(bytes); };
    BlockCache cache(options);
    const uint64_t id = BlockCache::NewFileId();
    for (int block = 0; block < 4; ++block) {
      Result<BlockPin> pin =
          cache.GetOrLoad(id, block, kCol0, 100, [&] { return MakeBlock(block); });
      ASSERT_TRUE(pin.ok());
    }
    EXPECT_EQ(pool.load(), cache.resident_bytes());
  }
  EXPECT_EQ(pool.load(), 0);  // destructor released every charge
}

TEST_F(StorageTest, SingleflightRunsOneLoaderAcrossThreads) {
  BlockCache::Options options;
  options.capacity_bytes = 1 << 20;
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  std::atomic<int> loads{0};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      Result<BlockPin> pin = cache.GetOrLoad(id, 0, kCol0, 100, [&] {
        loads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return MakeBlock(7);
      });
      if (!pin.ok() || pin->table().Get(0, 0).int64() != 7) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(loads.load(), 1);
}

TEST_F(StorageTest, FailedLoadWakesWaitersAndRetries) {
  BlockCache::Options options;
  BlockCache cache(options);
  const uint64_t id = BlockCache::NewFileId();
  std::atomic<int> attempts{0};
  auto flaky = [&]() -> Result<Table> {
    if (attempts.fetch_add(1) == 0) return Status::Internal("injected");
    return MakeBlock(9);
  };
  Result<BlockPin> first = cache.GetOrLoad(id, 0, kCol0, 100, flaky);
  EXPECT_FALSE(first.ok());
  Result<BlockPin> second = cache.GetOrLoad(id, 0, kCol0, 100, flaky);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->table().Get(0, 0).int64(), 9);
}

TEST_F(StorageTest, CacheEntriesAreKeyedAndChargedByColumnSet) {
  const Table sales = testutil::RandomSales(17, 40);
  TempFile file("cache_cols");
  BlockFileOptions options;
  options.block_size_rows = 16;
  ASSERT_TRUE(WriteBlockFile(sales, file.path(), options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(file.path());
  ASSERT_TRUE(paged.ok());
  const PagedTable& p = **paged;

  // A chunk's estimate is its cells' Value slots plus string bytes, and a
  // block's is the sum over its chunks: the whole-block estimate of old.
  for (int b = 0; b < p.num_blocks(); ++b) {
    int64_t block = 0;
    for (int c = 0; c < sales.num_columns(); ++c) {
      int64_t chunk = 0;
      for (int64_t r = 0; r < p.block_meta(b).num_rows; ++r) {
        const Value& v = sales.Get(p.block_row_offset(b) + r, c);
        chunk += static_cast<int64_t>(sizeof(Value)) +
                 (v.is_string() ? static_cast<int64_t>(v.string().size()) : 0);
      }
      EXPECT_EQ(p.block_meta(b).chunks[static_cast<size_t>(c)].decoded_bytes_estimate, chunk);
      EXPECT_EQ(p.ApproxBlockBytes(b, {c}), chunk);
      block += chunk;
    }
    EXPECT_EQ(p.ApproxBlockBytes(b), block);
  }

  BlockCache::Options cache_options;
  cache_options.capacity_bytes = 1 << 20;
  BlockCache cache(cache_options);
  const std::vector<int> prod = {1}, sale = {6}, both = {1, 6};
  int64_t charged = 0;
  auto fault = [&](const std::vector<int>& cols, bool expect_hit) {
    bool hit = !expect_hit;
    Result<BlockPin> pin = p.Fault(0, cols, &cache, &hit);
    EXPECT_TRUE(pin.ok());
    if (!pin.ok()) return;
    EXPECT_EQ(hit, expect_hit);
    if (!hit) charged += p.ApproxBlockBytes(0, cols);
    ASSERT_EQ(pin->table().num_columns(), static_cast<int>(cols.size()));
    for (size_t k = 0; k < cols.size(); ++k) {
      EXPECT_EQ(pin->table().schema().field(static_cast<int>(k)).name,
                sales.schema().field(cols[k]).name);
    }
    EXPECT_EQ(cache.resident_bytes(), charged);
  };
  fault(prod, false);
  fault(sale, false);  // another column set of the same block is a miss,
  fault(both, false);  // and so is a superset of cached sets
  fault(prod, true);
  fault(p.all_columns(), false);
  fault(p.all_columns(), true);
  fault(both, true);
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().hits, 3);
}

// ---------------------------------------------------------------------------
// Zone-map pruning: CouldMatch / CouldMatchString / ZoneCouldMatch

ZoneMapPredicate NumericWindow(double lo, double hi, bool lo_open = false,
                               bool hi_open = false) {
  ZoneMapPredicate pred;
  pred.column = "x";
  pred.num_lo = lo;
  pred.num_hi = hi;
  pred.num_lo_open = lo_open;
  pred.num_hi_open = hi_open;
  pred.allow_null = false;
  pred.allow_nan = false;
  pred.allow_all = false;
  pred.allow_string = false;
  pred.allow_non_numeric = false;
  return pred;
}

TEST_F(StorageTest, CouldMatchOpenVersusClosedEndpoints) {
  // Block spans exactly [5, 5]: x >= 5 admits it, x > 5 refutes it.
  EXPECT_TRUE(NumericWindow(5, kInf).CouldMatch(5, 5, false));
  EXPECT_FALSE(NumericWindow(5, kInf, /*lo_open=*/true).CouldMatch(5, 5, false));
  EXPECT_TRUE(NumericWindow(-kInf, 5).CouldMatch(5, 5, false));
  EXPECT_FALSE(NumericWindow(-kInf, 5, false, /*hi_open=*/true)
                   .CouldMatch(5, 5, false));
  // Disjoint windows refute; touching closed windows admit.
  EXPECT_FALSE(NumericWindow(6, 10).CouldMatch(1, 5, false));
  EXPECT_TRUE(NumericWindow(5, 10).CouldMatch(1, 5, false));
}

TEST_F(StorageTest, CouldMatchInfiniteEndpoints) {
  // A block holding +inf values satisfies x > 1e308's upper-unbounded window.
  EXPECT_TRUE(NumericWindow(1e308, kInf, /*lo_open=*/true)
                  .CouldMatch(kInf, kInf, false));
  // x < -1e308 against a block of -inf.
  EXPECT_TRUE(NumericWindow(-kInf, -1e308, false, /*hi_open=*/true)
                  .CouldMatch(-kInf, -kInf, false));
  // Unbounded predicate admits any numeric block.
  EXPECT_TRUE(NumericWindow(-kInf, kInf).CouldMatch(-kInf, kInf, false));
}

TEST_F(StorageTest, NullsOnlyMatterWhenPredicateAllowsThem) {
  ZoneMapPredicate pred = NumericWindow(10, 20);
  // Numeric window disjoint, but the block stores NULLs…
  EXPECT_FALSE(pred.CouldMatch(1, 5, /*block_has_null=*/true));
  pred.allow_null = true;
  EXPECT_TRUE(pred.CouldMatch(1, 5, /*block_has_null=*/true));
}

ColumnZoneMap NumericZone(double lo, double hi, int64_t n = 4) {
  ColumnZoneMap zone;
  zone.num_min = lo;
  zone.num_max = hi;
  zone.numeric_count = n;
  return zone;
}

TEST_F(StorageTest, ZoneCouldMatchNaNOnlyColumn) {
  // A NaN-only block has no numeric window at all; only a NaN-admitting
  // predicate keeps it.
  ColumnZoneMap zone;
  zone.nan_count = 4;
  ZoneMapPredicate pred = NumericWindow(-kInf, kInf);
  EXPECT_FALSE(ZoneCouldMatch(pred, zone));
  pred.allow_nan = true;
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));
}

TEST_F(StorageTest, ZoneCouldMatchAllNullBlock) {
  ColumnZoneMap zone;
  zone.null_count = 4;
  ZoneMapPredicate pred = NumericWindow(-kInf, kInf);
  EXPECT_FALSE(ZoneCouldMatch(pred, zone));
  pred.allow_null = true;
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));
}

TEST_F(StorageTest, ZoneCouldMatchAllMarkerBlock) {
  ColumnZoneMap zone;
  zone.all_count = 1;
  ZoneMapPredicate pred = NumericWindow(10, 20);
  EXPECT_FALSE(ZoneCouldMatch(pred, zone));
  pred.allow_all = true;
  pred.allow_non_numeric = true;
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));
}

TEST_F(StorageTest, ZoneCouldMatchStringWindow) {
  // Dictionary-coded string range: the zone carries [str_min, str_max].
  ColumnZoneMap zone;
  zone.string_count = 8;
  zone.str_min = "CA";
  zone.str_max = "NJ";
  ZoneMapPredicate pred;
  pred.column = "state";
  pred.allow_null = false;
  pred.allow_nan = false;
  pred.allow_all = false;
  pred.allow_string = true;
  pred.allow_non_numeric = true;
  pred.str_lo = "NY";
  pred.str_hi = "NY";
  // 'NY' > 'NJ': the equality window misses the zone.
  EXPECT_FALSE(ZoneCouldMatch(pred, zone));
  EXPECT_FALSE(pred.CouldMatchString("CA", "NJ"));
  zone.str_max = "NY";
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));
  EXPECT_TRUE(pred.CouldMatchString("CA", "NY"));
  // Open upper endpoint: state < "CA" refutes a CA..NY zone.
  ZoneMapPredicate below;
  below.column = "state";
  below.allow_null = false;
  below.allow_all = false;
  below.str_hi = "CA";
  below.str_hi_open = true;
  EXPECT_FALSE(below.CouldMatchString("CA", "NY"));
  below.str_hi_open = false;
  EXPECT_TRUE(below.CouldMatchString("CA", "NY"));
}

TEST_F(StorageTest, ZoneCouldMatchMixedBlockUsesEveryClass) {
  // A block mixing numerics outside the window with strings inside it must
  // be kept (the string side may match), and vice versa.
  ColumnZoneMap zone = NumericZone(100, 200);
  zone.string_count = 2;
  zone.str_min = "AA";
  zone.str_max = "ZZ";
  ZoneMapPredicate pred = NumericWindow(1, 5);
  pred.allow_string = true;
  pred.allow_non_numeric = true;
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));  // strings could match
  pred.allow_string = false;
  pred.allow_non_numeric = false;
  EXPECT_FALSE(ZoneCouldMatch(pred, zone));  // now only the numeric window counts
  pred.num_lo = 150;
  pred.num_hi = kInf;
  EXPECT_TRUE(ZoneCouldMatch(pred, zone));
}

// ---------------------------------------------------------------------------
// Differential fuzz: pruned blocks contain zero θ-matching rows

TEST_F(StorageTest, FuzzPrunedBlocksHoldNoMatchingRows) {
  // For random tables × a family of range-bearing θs: every block the planner
  // prunes must contain zero rows matching θ against *any* base row — checked
  // by running the reference MD-join over just that block.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Table sales = testutil::RandomSales(seed, 200);
    Result<Table> base = GroupByBase(sales, {"cust"});
    ASSERT_TRUE(base.ok());
    TempFile file("fuzz_" + std::to_string(seed));
    BlockFileOptions options;
    options.block_size_rows = 16;
    ASSERT_TRUE(WriteBlockFile(sales, file.path(), options).ok());
    Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(file.path());
    ASSERT_TRUE(paged.ok());

    Random rng(seed * 77);
    std::vector<ExprPtr> thetas = {
        And(Eq(RCol("cust"), BCol("cust")),
            Gt(RCol("sale"), Lit(static_cast<double>(rng.UniformInt(1, 500))))),
        And(Eq(RCol("cust"), BCol("cust")),
            Eq(RCol("state"), Lit(rng.Uniform(2) == 0 ? "NY" : "IL"))),
        And(Eq(RCol("cust"), BCol("cust")),
            And(Ge(RCol("month"), Lit(rng.UniformInt(1, 4))),
                Le(RCol("sale"), Lit(static_cast<double>(rng.UniformInt(1, 300)))))),
        And(Eq(RCol("cust"), BCol("cust")),
            Lt(RCol("year"), Lit(1996))),  // unsatisfiable on this data
    };
    for (size_t ti = 0; ti < thetas.size(); ++ti) {
      const ExprPtr& theta = thetas[ti];
      std::vector<bool> keep =
          PlanMorselPruning((*paged)->schema(), (*paged)->zones(), {{{}, theta}});
      ASSERT_EQ(keep.size(), static_cast<size_t>((*paged)->num_blocks()));
      for (size_t b = 0; b < keep.size(); ++b) {
        if (keep[b]) continue;
        Result<BlockPin> pin = (*paged)->Fault(static_cast<int>(b), nullptr);
        ASSERT_TRUE(pin.ok());
        Result<Table> counts = MdJoin(*base, pin->table(), {Count("n")}, theta);
        ASSERT_TRUE(counts.ok()) << counts.status().ToString();
        for (int64_t r = 0; r < counts->num_rows(); ++r) {
          ASSERT_EQ(counts->Get(r, counts->num_columns() - 1).int64(), 0)
              << "seed " << seed << " theta " << ti << ": pruned block " << b
              << " holds a matching row";
        }
      }
    }
  }
}

}  // namespace
}  // namespace mdjoin
