#ifndef MDJOIN_STATS_QUERY_LOG_H_
#define MDJOIN_STATS_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"

namespace mdjoin {

/// Persistent query history: one structured record per completed (or
/// rejected) query, kept in a fixed-capacity in-memory ring and optionally
/// appended as JSONL to a log file (`--query-log=PATH`). The record is the
/// workload-telemetry unit that ties together admission, caching, execution
/// counters, and estimation quality for a single query.

struct QueryRecord {
  uint64_t fingerprint = 0;  // FNV-1a of the canonical plan rendering
  uint64_t plan_hash = 0;    // FNV-1a of the optimized/executed plan rendering
  double wall_ms = 0;
  double cpu_ms = 0;
  int64_t rows = 0;
  /// Terminal outcome: "ok", "shed", "deadline", "cancelled", or "error".
  std::string outcome = "ok";
  /// Result-cache outcome of a query that completed, as QueryService
  /// writes it (CacheOutcomeToString): "disabled", "miss", "hit" or
  /// "rollup_hit". "off" for a query that failed, and for records written
  /// outside the service.
  std::string cache = "off";
  int64_t queue_wait_ms = 0;
  int64_t detail_rows_scanned = 0;
  int64_t blocks_read = 0;
  int64_t spill_bytes = 0;
  bool guard_tripped = false;
  double max_qerror = -1;  // -1 when no estimates were annotated
  bool slow = false;       // wall_ms exceeded the slow-query threshold

  /// One JSON object on one line (fingerprints as unsigned decimal strings
  /// so 64-bit values survive JSON readers that parse numbers as doubles).
  std::string ToJsonl() const;

  /// Parses a ToJsonl() line back. Tolerates extra keys; missing required
  /// keys are an InvalidArgument.
  static Result<QueryRecord> FromJsonl(const std::string& line);
};

/// Fixed-capacity ring of QueryRecords plus the optional JSONL appender and
/// slow-query detection. Thread-safe: QueryService sessions record
/// concurrently.
class QueryHistory {
 public:
  struct Options {
    size_t capacity = 256;
    std::string log_path;      // empty = in-memory only
    int64_t slow_query_ms = 0; // 0 = slow-query detection off
  };

  explicit QueryHistory(const Options& options);
  ~QueryHistory();

  QueryHistory(const QueryHistory&) = delete;
  QueryHistory& operator=(const QueryHistory&) = delete;

  /// Appends to the ring (evicting the oldest record past capacity), sets
  /// record.slow, writes the JSONL line, and emits the slow-query trace
  /// instant + counter when the threshold is crossed.
  void Record(QueryRecord record) MDJ_EXCLUDES(mu_);

  /// Ring contents, oldest first.
  std::vector<QueryRecord> Snapshot() const MDJ_EXCLUDES(mu_);

  /// Total records ever recorded (>= ring size once capacity is exceeded).
  int64_t total_recorded() const MDJ_EXCLUDES(mu_);

  /// Human-readable digest for the CLI --stats-dump exit report.
  std::string SummaryText() const MDJ_EXCLUDES(mu_);

 private:
  const Options options_;
  mutable Mutex mu_;
  std::vector<QueryRecord> ring_ MDJ_GUARDED_BY(mu_);
  size_t next_ MDJ_GUARDED_BY(mu_) = 0;  // ring write cursor
  int64_t total_ MDJ_GUARDED_BY(mu_) = 0;
  std::FILE* log_file_ MDJ_GUARDED_BY(mu_) = nullptr;
};

}  // namespace mdjoin

#endif  // MDJOIN_STATS_QUERY_LOG_H_
