#ifndef MDJOIN_CORE_DETAIL_SCAN_H_
#define MDJOIN_CORE_DETAIL_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "agg/agg_spec.h"
#include "agg/flat_state.h"
#include "common/query_guard.h"
#include "core/base_index.h"
#include "core/mdjoin.h"
#include "table/table.h"
#include "table/table_accel.h"

namespace mdjoin {

/// The detail relation R as the MD-join driver (and a base generator reading
/// R, cube/base_tables.h) reads it: a fixed sequence of morsels that every
/// pass walks in the same order, each handed to the scan as rows [lo, hi) of
/// a table with R's schema. Row r of a chunk is row `first_row + r` of R, so
/// a scan can index per-row data of R (a GroupIdMap) from any chunk. Read()
/// is called concurrently by the driver's workers; implementations keep no
/// mutable shared state.
class DetailSource {
 public:
  using ScanFn = std::function<Status(const Table& chunk, int64_t lo, int64_t hi,
                                      int64_t first_row)>;

  DetailSource() = default;
  DetailSource(const DetailSource&) = delete;
  DetailSource& operator=(const DetailSource&) = delete;
  virtual ~DetailSource() = default;

  /// The table θ compiles and scans prepare against. When a chunk IS this
  /// table, the scan engages the machinery bound to its storage (typed
  /// mirror, hoisted argument columns, code-key probe memos).
  virtual const Table& prepared() const = 0;

  /// Morsels one pass reads.
  virtual int64_t num_morsels() const = 0;

  /// Rows of R, pruned morsels included.
  virtual int64_t num_rows() const = 0;

  /// Morsels of R each pass skips unread (zone-map pruned).
  virtual int64_t pruned_per_pass() const { return 0; }

  /// Most bytes Read() holds reserved on the guard for one morsel while its
  /// scan runs (an uncached decoded block). Optional memory leaves this much
  /// headroom free per worker.
  virtual int64_t morsel_bytes() const { return 0; }

  /// The columns Read() decodes from storage for each morsel, in schema
  /// order; empty for a source that decodes nothing (R in memory).
  virtual std::vector<std::string> decoded_columns() const { return {}; }

  /// Reads morsel `m` and calls `scan` on it. Storage counters (blocks read,
  /// faulted, cache hits) go into `stats`, which is the calling worker's own
  /// (only those fields are touched).
  virtual Status Read(int64_t m, QueryGuard* guard, MdJoinStats* stats,
                      const ScanFn& scan) const = 0;
};

/// An in-memory detail relation cut into kMorselRows-row morsels: every
/// morsel, or those `keep` marks (one flag per morsel; PlanMorselPruning's
/// decision over the zone maps of the table's mirror, storage/out_of_core.h).
class TableSource final : public DetailSource {
 public:
  explicit TableSource(const Table& table, const std::vector<bool>& keep = {});

  const Table& prepared() const override { return *table_; }
  int64_t num_morsels() const override { return static_cast<int64_t>(kept_.size()); }
  int64_t num_rows() const override { return table_->num_rows(); }
  int64_t pruned_per_pass() const override { return pruned_; }
  Status Read(int64_t m, QueryGuard*, MdJoinStats*, const ScanFn& scan) const override {
    const int64_t lo = kept_[static_cast<size_t>(m)] * kMorselRows;
    return scan(*table_, lo, std::min(lo + kMorselRows, table_->num_rows()), 0);
  }

 private:
  const Table* table_;
  std::vector<int64_t> kept_;  // morsel numbers read, in order
  int64_t pruned_ = 0;
};

/// Thread-local mutable side of a detail scan: partial aggregate accumulators
/// over *all* base rows (global row ids) for every component's aggregates,
/// reusable probe/selection buffers, and a GuardTicket that batches guard
/// accounting so concurrent workers never contend on a shared hot atomic
/// between stride checks. One worker's partials are the final states at one
/// thread; with more, MergeWorkerPartials folds them together.
struct DetailScanWorker {
  DetailScanWorker(int64_t base_rows, const std::vector<BoundAgg>& aggs,
                   size_t num_components, QueryGuard* guard);

  DetailScanWorker(const DetailScanWorker&) = delete;
  DetailScanWorker& operator=(const DetailScanWorker&) = delete;

  /// Resets per-index state (each probe memo caches one index's candidate
  /// lists). Called whenever the worker switches to a different scan job.
  void BeginJob();

  /// Flushes the ticket's pending row/pair counts into the guard and performs
  /// a final check, keeping budgets exact. Called once per worker per pass.
  Status FinishScan();

  std::vector<AggStateColumn> cols;               // one per aggregate, all components
  std::vector<BaseIndex::ProbeScratch> scratch;   // one per component index

  // Reusable scan buffers (owned per worker: Probe and the selection loop do
  // zero steady-state allocation, and nothing here is shared across threads).
  std::vector<uint32_t> sel;
  std::vector<uint64_t> mask;  // kernel bitmask scratch, 2 * MaskWords(block)
  std::vector<uint8_t> qual;   // rows of the block any component selected
  std::vector<int64_t> candidates;
  std::vector<int64_t> matched_buf;

  GuardTicket ticket;
  MdJoinStats stats;  // local work counters, folded into the driver's
};

/// Combines `from`'s partial accumulators group-wise into `into` (Theorem 4.1
/// union of detail-split partials). Checks the guard every stride of merged
/// cells — even inside one wide column — so cancellation is honored during
/// the merge tail, not only during scans.
Status MergeWorkerPartials(DetailScanWorker* into, const DetailScanWorker& from,
                           QueryGuard* guard);

/// The one MD-join driver: the generalized MD-join MD(B, R, (l1..lk),
/// (θ1..θk)) of Theorem 4.3 over k >= 1 components, evaluated against
/// `detail`. Every MD-join route (MdJoin, GeneralizedMdJoin, ParallelMdJoin,
/// PagedMdJoin, the spill partition joins) is a call into this function.
///
/// It binds the aggregates and compiles each θ once; sizes Theorem 4.1
/// passes from options.base_rows_per_pass and the guard's soft budget; splits
/// each pass into `base_fragments` contiguous fragments of B (ParallelMdJoin's
/// base split, each fragment a scan job over all of R); runs
/// options.num_threads workers over one MorselScheduler per pass — inline on
/// the caller with one thread; and merges the partials pairwise before
/// finalizing column by column. Output: base columns, then every component's
/// aggregates in order; one row per base row, in base order.
///
/// Relative sets come from one of three places (stats->route): the map
/// `groups` the generator of B built from R, a BaseIndex per job over θ's
/// equi part, or every active base row. The map runs when it is offered and
/// exact, every θ's equi part is the plain B.d = R.d pairs over its dims with
/// no B-only conjunct, the index is enabled, B runs in one pass and one
/// fragment, and the guard's headroom takes the map beside what the workers
/// reserve for decoded morsels; otherwise the index runs and
/// stats->route_reason says why. Either way the scan updates per detail row
/// in R order, so the results are bit-identical.
Result<Table> RunMdJoin(const Table& base, const DetailSource& detail,
                        const std::vector<MdJoinComponent>& components,
                        const MdJoinOptions& options, MdJoinStats* stats,
                        const GroupIdMap* groups = nullptr, int base_fragments = 1);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_DETAIL_SCAN_H_
