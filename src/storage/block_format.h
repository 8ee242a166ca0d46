#ifndef MDJOIN_STORAGE_BLOCK_FORMAT_H_
#define MDJOIN_STORAGE_BLOCK_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"
#include "table/table_accel.h"
#include "types/schema.h"

namespace mdjoin {

/// Paged columnar block format — the on-disk half of the out-of-core MD-join
/// (ROADMAP item 1), patterned after WiredTiger's src/block layering: a file
/// is a schema header, a sequence of blocks (each a fixed-capacity slice of
/// rows, stored as one independently decodable chunk per column, each with a
/// lightweight encoding), and a footer index carrying, for every chunk, its
/// offset, length, encoding, checksum and decoded-size estimate, and for
/// every block a per-column zone map. A reader seeks straight to the chunks
/// it needs: a scan that names three of seven columns reads, verifies and
/// decodes three chunks per block. Nothing outside the footer need be
/// resident.
///
/// Layout (format version 2):
///   header   "MDJB", u32 version, u32 columns, (name, type) per column,
///            i64 rows per block, i64 rows
///   chunks   block 0 column 0, block 0 column 1, ..., block 1 column 0, ...
///   footer   u32 blocks; per block: i64 rows, then per column the chunk's
///            offset, length, encoding, checksum, decoded-size estimate and
///            zone map
///   trailer  u64 header length, u64 footer offset, u64 checksum over the
///            header, the footer and these two fields, "MDJE"
/// Open verifies the trailer's checksum before it parses the header or the
/// footer, so a corrupt zone map can never prune a block.
///
/// Encodings are chosen per column chunk by the writer and recorded in the
/// footer, so the reader is encoding-agnostic:
///  - kPlain:  tagged values verbatim (the fallback; also the spill codec);
///  - kRle:    run-length over *exactly identical* cells — note Equals()
///             would merge Int64(3) with Float64(3.0) and change decoded bit
///             content, so run detection uses same-variant bitwise equality;
///  - kDict:   per-chunk sorted dictionary (table/dictionary) + int32 codes,
///             for chunks holding only strings / NULL / ALL;
///  - kForInt: frame-of-reference for pure-int64 chunks — min base plus
///             fixed-width byte deltas.
/// Every encoding round-trips cells bit-exactly (NaN payloads, -0.0, string
/// bytes), which is what makes the paged MD-join bit-identical to in-memory.

enum class BlockEncoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDict = 2,
  kForInt = 3,
};

/// Footer entry for one column chunk of one block.
struct ChunkMeta {
  uint64_t offset = 0;  // file offset of the chunk's bytes
  uint64_t length = 0;
  BlockEncoding encoding = BlockEncoding::kPlain;
  uint64_t checksum = 0;               // BlockChecksum over the chunk's bytes
  int64_t decoded_bytes_estimate = 0;  // cache and guard charge of its decode
};

/// Footer entry for one block: its row count and one chunk per column.
struct BlockMeta {
  int64_t num_rows = 0;
  std::vector<ChunkMeta> chunks;
};

struct BlockFileOptions {
  /// Rows per block. The default keeps a decoded block's column slices a few
  /// hundred KB — several vectorized scan blocks per storage block, small
  /// enough that a starved cache still makes progress block-at-a-time.
  int64_t block_size_rows = 4096;
};

/// Converts an in-memory Table into a block file at `path` (overwriting).
Status WriteBlockFile(const Table& table, const std::string& path,
                      const BlockFileOptions& options = {});

/// Open handle on a block file: the verified and parsed header + footer
/// (schema, row counts, chunk index, zone maps) with the chunks left on
/// disk. ReadBlock decodes the chunks of one block that a reader names; it
/// opens its own stream per call, so one BlockFile may serve many scan
/// threads concurrently.
///
/// Failpoints: "storage:block_read" forces the next block read to fail as a
/// clean I/O Status; "storage:block_corrupt" flips the next computed chunk
/// checksum so the mismatch path runs.
class BlockFile {
 public:
  /// Opens `path`. The header and footer are trusted only after the
  /// trailer's checksum over them matches; a mismatch, a bad magic, a file
  /// of another format version or malformed geometry is an error Status.
  static Result<std::unique_ptr<BlockFile>> Open(std::string path);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  int64_t block_size_rows() const { return block_size_rows_; }
  const BlockMeta& block_meta(int b) const { return blocks_[static_cast<size_t>(b)]; }
  /// The footer's zone maps, one entry per block (ComputeZone per column).
  const MorselZoneMaps& zones() const { return zones_; }
  /// First row id (in whole-file row numbering) of block `b`.
  int64_t block_row_offset(int b) const {
    return static_cast<int64_t>(b) * block_size_rows_;
  }
  const std::string& path() const { return path_; }
  /// 0, 1, ..., columns - 1: the projection onto every column.
  const std::vector<int>& all_columns() const { return all_columns_; }

  /// Decodes the chunks of block `b` for the columns `cols` (schema indices,
  /// ascending and distinct, at least one) into a Table whose schema is that
  /// projection of schema(). Each chunk's checksum is verified before it is
  /// decoded; a mismatch (bit rot, torn write, or the storage:block_corrupt
  /// failpoint) is an Internal error naming the block and the column, and
  /// the chunks of other columns stay readable.
  Result<Table> ReadBlock(int b, const std::vector<int>& cols) const;
  /// Every column of block `b`.
  Result<Table> ReadBlock(int b) const { return ReadBlock(b, all_columns_); }

  /// Estimated heap footprint of decoding `cols` of block `b` (the sum of
  /// their chunks' estimates), used for cache and guard charging without
  /// decoding first.
  int64_t ApproxBlockBytes(int b, const std::vector<int>& cols) const;
  /// The whole block's estimate.
  int64_t ApproxBlockBytes(int b) const { return ApproxBlockBytes(b, all_columns_); }

 private:
  BlockFile() = default;

  std::string path_;
  Schema schema_;
  int64_t num_rows_ = 0;
  int64_t block_size_rows_ = 0;
  std::vector<BlockMeta> blocks_;
  MorselZoneMaps zones_;
  std::vector<int> all_columns_;
};

/// The chunk and footer checksum: a 64-bit hash that consumes eight bytes
/// per step. Each step is a bijection of the running state for a fixed word
/// and of the word for a fixed state, so any change confined to one aligned
/// eight-byte word — every single-bit flip — changes the result.
uint64_t BlockChecksum(const char* data, size_t len);

/// The tagged scalar codec (u8 tag + payload) shared by kPlain block chunks
/// and spill-file rows. Round-trips every Value bit-exactly.
void AppendTaggedValue(std::string* out, const Value& v);

/// Decodes one tagged value from data[*pos..len), advancing *pos past it.
/// Returns false (leaving *pos unspecified) on truncated or malformed input.
bool ParseTaggedValue(const char* data, size_t len, size_t* pos, Value* out);

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_BLOCK_FORMAT_H_
