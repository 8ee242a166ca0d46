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
/// is a schema header, a sequence of independently decodable blocks (each a
/// fixed-capacity slice of rows, stored column-chunk-at-a-time with a
/// per-chunk lightweight encoding), and a footer index carrying, for every
/// block, its offset/length/checksum and a per-column zone map. Readers seek
/// straight to any block; nothing outside the footer need be resident.
///
/// Encodings are chosen per column chunk by the writer and recorded in the
/// block payload, so the reader is encoding-agnostic:
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

/// Footer entry for one block.
struct BlockMeta {
  uint64_t offset = 0;         // file offset of the payload
  uint64_t encoded_bytes = 0;  // payload length
  int64_t num_rows = 0;
  uint64_t checksum = 0;  // FNV-1a 64 over the payload
  std::vector<uint8_t> encodings;      // BlockEncoding per column
  int64_t decoded_bytes_estimate = 0;  // cache-charge estimate
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

/// Open handle on a block file: the parsed header + footer (schema, row
/// counts, zone maps) with block payloads left on disk. ReadBlock decodes one
/// block into a Table; it opens its own stream per call, so one BlockFile may
/// serve many scan threads concurrently.
///
/// Failpoints: "storage:block_read" forces the next payload read to fail as a
/// clean I/O Status; "storage:block_corrupt" flips the computed checksum so
/// the mismatch path runs.
class BlockFile {
 public:
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

  /// Decodes block `b`. Verifies the payload checksum before decoding; a
  /// mismatch (bit rot, torn write, or the storage:block_corrupt failpoint)
  /// is an Internal error naming the block.
  Result<Table> ReadBlock(int b) const;

  /// Estimated heap footprint of the decoded block, used for cache and guard
  /// charging without decoding first.
  int64_t ApproxBlockBytes(int b) const {
    return blocks_[static_cast<size_t>(b)].decoded_bytes_estimate;
  }

 private:
  BlockFile() = default;

  std::string path_;
  Schema schema_;
  int64_t num_rows_ = 0;
  int64_t block_size_rows_ = 0;
  std::vector<BlockMeta> blocks_;
  MorselZoneMaps zones_;
};

/// FNV-1a 64-bit, the block payload checksum.
uint64_t BlockChecksum(const char* data, size_t len);

/// The tagged scalar codec (u8 tag + payload) shared by kPlain block chunks
/// and spill-file rows. Round-trips every Value bit-exactly.
void AppendTaggedValue(std::string* out, const Value& v);

/// Decodes one tagged value from data[*pos..len), advancing *pos past it.
/// Returns false (leaving *pos unspecified) on truncated or malformed input.
bool ParseTaggedValue(const char* data, size_t len, size_t* pos, Value* out);

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_BLOCK_FORMAT_H_
