#ifndef MDJOIN_STORAGE_PAGED_TABLE_H_
#define MDJOIN_STORAGE_PAGED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/query_guard.h"
#include "common/result.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"

namespace mdjoin {

/// A detail relation living in a block file instead of RAM: schema, row
/// counts, and zone maps resident; payloads faulted block-at-a-time, ideally
/// through a shared BlockCache. This is the handle the out-of-core MD-join
/// driver (storage/out_of_core) scans and the catalog registers for
/// `--storage=paged` tables.
///
/// Thread-safe: Fault only reads immutable footer state and the BlockFile
/// reader opens a fresh stream per call, so concurrent morsel workers may
/// fault blocks freely.
class PagedTable {
 public:
  /// Opens an existing block file (written by WriteBlockFile).
  static Result<std::unique_ptr<PagedTable>> Open(std::string path);

  const Schema& schema() const { return file_->schema(); }
  int64_t num_rows() const { return file_->num_rows(); }
  int num_blocks() const { return file_->num_blocks(); }
  int64_t block_size_rows() const { return file_->block_size_rows(); }
  int64_t block_row_offset(int b) const { return file_->block_row_offset(b); }
  const BlockMeta& block_meta(int b) const { return file_->block_meta(b); }
  const MorselZoneMaps& zones() const { return file_->zones(); }
  const std::vector<int>& all_columns() const { return file_->all_columns(); }
  /// The decoded-size estimate of `cols` of block `b`, and of the whole block.
  int64_t ApproxBlockBytes(int b, const std::vector<int>& cols) const {
    return file_->ApproxBlockBytes(b, cols);
  }
  int64_t ApproxBlockBytes(int b) const { return file_->ApproxBlockBytes(b); }
  const std::string& path() const { return file_->path(); }
  /// Cache key namespace for this open table.
  uint64_t id() const { return id_; }

  /// Decodes the columns `cols` of block `b` (BlockFile::ReadBlock) into a
  /// table with that projection of the schema, through `cache` when non-null
  /// (keyed and charged by that column set; sets *was_hit on a resident
  /// lookup), or directly into an ephemeral pin otherwise. Counts the read
  /// in mdjoin_blocks_read_total, and a decode in mdjoin_blocks_faulted_total
  /// and, once per chunk, mdjoin_column_chunks_decoded_total.
  Result<BlockPin> Fault(int b, const std::vector<int>& cols, BlockCache* cache,
                         bool* was_hit = nullptr) const;
  /// Every column of block `b`.
  Result<BlockPin> Fault(int b, BlockCache* cache, bool* was_hit = nullptr) const {
    return Fault(b, all_columns(), cache, was_hit);
  }

  /// Materializes the whole file as one in-memory Table — the compatibility
  /// fallback for consumers without a block-at-a-time path (e.g. a paged
  /// table referenced outside an MD-join detail position). Reserves the
  /// decoded estimate on `guard` while assembling. Every block decoded counts
  /// in mdjoin_blocks_read_total and mdjoin_blocks_faulted_total.
  Result<Table> ReadAll(QueryGuard* guard) const;

 private:
  explicit PagedTable(std::unique_ptr<BlockFile> file)
      : file_(std::move(file)), id_(BlockCache::NewFileId()) {}

  std::unique_ptr<BlockFile> file_;
  uint64_t id_;
};

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_PAGED_TABLE_H_
