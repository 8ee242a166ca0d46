#include "storage/paged_table.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mdjoin {

namespace {

/// Every block a paged table serves counts in `mdjoin_blocks_read_total`,
/// and every decode in `mdjoin_blocks_faulted_total` too, with its column
/// chunks in `mdjoin_column_chunks_decoded_total`, whichever path read it (a
/// scan's Fault or a whole-file ReadAll).
void CountBlockRead(bool decoded, size_t chunks) {
  static Counter* read = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_read_total",
      "storage blocks served to paged scans (faults + cache hits)");
  static Counter* faulted = MetricsRegistry::Global().GetCounter(
      "mdjoin_blocks_faulted_total",
      "storage block loads that ran the decoder (cache miss or no cache)");
  static Counter* decoded_chunks = MetricsRegistry::Global().GetCounter(
      "mdjoin_column_chunks_decoded_total",
      "column chunks verified and decoded by block loads");
  read->Increment(1);
  if (decoded) {
    faulted->Increment(1);
    decoded_chunks->Increment(static_cast<int64_t>(chunks));
  }
}

}  // namespace

Result<std::unique_ptr<PagedTable>> PagedTable::Open(std::string path) {
  MDJ_ASSIGN_OR_RETURN(std::unique_ptr<BlockFile> file,
                       BlockFile::Open(std::move(path)));
  return std::unique_ptr<PagedTable>(new PagedTable(std::move(file)));
}

Result<BlockPin> PagedTable::Fault(int b, const std::vector<int>& cols,
                                   BlockCache* cache, bool* was_hit) const {
  bool hit = false;
  BlockPin pin;
  if (cache == nullptr) {
    MDJ_ASSIGN_OR_RETURN(Table block, file_->ReadBlock(b, cols));
    pin.table_ = std::make_shared<const Table>(std::move(block));
  } else {
    MDJ_ASSIGN_OR_RETURN(
        pin, cache->GetOrLoad(id_, b, cols, ApproxBlockBytes(b, cols),
                              [this, b, &cols] { return file_->ReadBlock(b, cols); },
                              &hit));
  }
  CountBlockRead(!hit, cols.size());
  if (was_hit != nullptr) *was_hit = hit;
  return pin;
}

Result<Table> PagedTable::ReadAll(QueryGuard* guard) const {
  int64_t estimate = 0;
  for (int b = 0; b < num_blocks(); ++b) estimate += ApproxBlockBytes(b);
  ScopedReservation reservation;
  MDJ_RETURN_NOT_OK(
      reservation.Reserve(guard, estimate, "paged table materialization"));

  const int ncols = schema().num_fields();
  std::vector<std::vector<Value>> cols(static_cast<size_t>(ncols));
  for (auto& col : cols) col.reserve(static_cast<size_t>(num_rows()));
  for (int b = 0; b < num_blocks(); ++b) {
    if (guard != nullptr) MDJ_RETURN_NOT_OK(guard->Check());
    MDJ_ASSIGN_OR_RETURN(Table block, file_->ReadBlock(b));
    CountBlockRead(/*decoded=*/true, static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) {
      const std::vector<Value>& src = block.column(c);
      cols[static_cast<size_t>(c)].insert(cols[static_cast<size_t>(c)].end(),
                                          src.begin(), src.end());
    }
  }
  Table out;
  for (int c = 0; c < ncols; ++c) {
    MDJ_RETURN_NOT_OK(
        out.AddColumn(schema().field(c), std::move(cols[static_cast<size_t>(c)])));
  }
  return out;
}

}  // namespace mdjoin
