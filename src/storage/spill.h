#ifndef MDJOIN_STORAGE_SPILL_H_
#define MDJOIN_STORAGE_SPILL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "agg/agg_spec.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "table/table.h"

namespace mdjoin {

/// Partitioned spill: the true out-of-memory escape hatch behind Theorem 4.1.
/// When the aggregate state over all of B cannot fit the guard's budget,
/// hash-partition B and R on the equi part of θ into P spill-file pairs and
/// run P small MD-joins, one partition resident at a time. Each partition
/// file holds a subsequence of its relation in original row order, so every
/// base row accumulates its matches in exactly the order the single-pass scan
/// would have used — results are bit-identical, floats included.
///
/// Routing (the part θ-equality semantics make subtle):
///  - base row with a NULL equi key matches nothing → any partition, where it
///    comes back with identity aggregates;
///  - base row with an ALL equi key matches across partitions → a broadcast
///    group joined against the full detail stream instead of one partition;
///  - detail row with a NULL equi key matches nothing → dropped;
///  - detail row with an ALL equi key may match in any partition → appended
///    to every partition file (in encounter order, preserving R-order).

/// Row-stream writer for one spill partition file: "MDJS" magic + column
/// count, then rows as tagged values (storage/block_format codec). Buffered
/// up to `buf_bytes` (default ~1 MiB; the spill driver shrinks it when many
/// writers share a tight guard budget); the buffer is charged to the guard
/// while the writer is open. The failpoint "storage:spill_write" forces the
/// next flush to fail.
class SpillWriter {
 public:
  static Result<std::unique_ptr<SpillWriter>> Create(std::string path,
                                                     int num_columns,
                                                     QueryGuard* guard,
                                                     int64_t buf_bytes = 0);

  /// Appends row `row` of `src` (which must have `num_columns` columns).
  Status AppendRow(const Table& src, int64_t row);

  /// Flushes and closes; call before reading the file back. Idempotent.
  Status Finish();

  int64_t rows_written() const { return rows_; }
  /// Encoded bytes, header included; meaningful after Finish().
  int64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  SpillWriter() = default;
  Status Flush();

  std::string path_;
  std::ofstream out_;
  std::string buf_;
  size_t buf_limit_ = 0;
  ScopedReservation buf_bytes_;
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
  bool finished_ = false;
};

/// Reads a whole spill partition file back as a Table with `schema`.
Result<Table> ReadSpillFile(const std::string& path, const Schema& schema,
                            QueryGuard* guard);

/// The partitioned-spill MD-join driver. Bit-identical to MdJoin(). B routes
/// as above; R streams into the partition writers one morsel of `detail` at
/// a time (for a paged relation: one decoded block, zone-pruned blocks never
/// read — they hold no θ-matching row), so peak residency is one morsel plus
/// one partition pair; a row θ's R-only conjuncts reject is never written.
/// Each partition pair, and the ALL-key broadcast group against the full
/// `detail`, is joined by the one MD-join driver (core/detail_scan.h) with
/// options.num_threads workers. Requires θ to carry at least one equi
/// conjunct to partition on; without one it runs the driver directly (whose
/// guard degradation multi-passes instead). Spill files land in
/// options.spill_dir (or the system temp directory) and are removed before
/// returning, success or not.
Result<Table> SpillMdJoin(const Table& base, const DetailSource& detail,
                          const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                          const MdJoinOptions& options, MdJoinStats* stats);

/// Fan-out used by SpillMdJoin: options.spill_partitions if set, else sized
/// so one partition's aggregate state fits the guard's soft headroom, clamped
/// to [2, 64]. Exposed for tests.
int ChooseSpillPartitions(const MdJoinOptions& options, int64_t base_rows,
                          int64_t num_aggs);

/// Creates a process-unique spill file path under `dir` (or the system temp
/// directory when empty): mdjoin-spill-<pid>-<seq>-<tag>.
std::string MakeSpillPath(const std::string& dir, const std::string& tag);

}  // namespace mdjoin

#endif  // MDJOIN_STORAGE_SPILL_H_
