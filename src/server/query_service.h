#ifndef MDJOIN_SERVER_QUERY_SERVICE_H_
#define MDJOIN_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/query_guard.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/mdjoin.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "server/admission.h"
#include "server/result_cache.h"
#include "stats/feedback.h"
#include "stats/query_log.h"
#include "storage/block_cache.h"

namespace mdjoin {

class Session;

/// Configuration of a QueryService (the connection-level object in the
/// WiredTiger-style connection/session split).
struct QueryServiceOptions {
  /// Global budgets: one memory pool and one thread-token pool shared by all
  /// concurrent queries and the result cache, plus the admission queue bound.
  AdmissionController::Options admission;

  /// Per-query budget minted at admission when the session does not ask for
  /// a specific amount (SessionQueryOptions::memory_bytes).
  int64_t default_memory_per_query = int64_t{64} << 20;

  /// Per-query engine threads minted at admission by default.
  int default_threads_per_query = 1;

  /// Default deadline applied to every query; 0 = none.
  int64_t default_timeout_ms = 0;

  /// Result-cache capacity carved out of the shared admission memory pool;
  /// 0 disables the cache entirely.
  int64_t cache_capacity_bytes = int64_t{256} << 20;

  /// Decoded-block cache for paged (out-of-core) tables, shared by every
  /// session and charged against the same admission memory pool; 0 means
  /// queries over paged tables stream blocks ephemerally instead.
  int64_t block_cache_bytes = 0;

  /// Options for OptimizePlan, which canonicalizes every plan before the
  /// cache is keyed and the plan runs: equal queries then share cache
  /// entries even when phrased differently.
  OptimizeOptions optimize_options;

  /// Template for engine execution knobs. `guard` and `num_threads` are
  /// overwritten per query from the admission ticket.
  MdJoinOptions md_options;

  /// Execute under EXPLAIN ANALYZE profiling and harvest measured
  /// cardinalities into the service's feedback store after every complete
  /// run (estimates then improve run over run, and query records carry max
  /// q-error). Off by default: profiling materializes per-operator records.
  bool collect_feedback = false;

  /// Query-history ring capacity; 0 disables history (and the query log).
  size_t query_history_capacity = 256;

  /// JSONL append path for the query history; empty keeps it in-memory only.
  std::string query_log_path;

  /// Wall-time threshold (ms) past which a query is flagged slow (trace
  /// instant + mdjoin_slow_queries_total); 0 disables the check.
  int64_t slow_query_ms = 0;
};

/// How the result cache participated in one query.
enum class CacheOutcome {
  kDisabled,   // cache off (service- or query-level)
  kMiss,       // executed in full; result inserted
  kHit,        // exact canonical-plan hit, no engine work
  kRollupHit,  // served by rolling up a cached finer cuboid (Theorem 4.5)
};

const char* CacheOutcomeToString(CacheOutcome outcome);

/// Per-query report returned alongside the result table.
struct QueryStats {
  CacheOutcome cache = CacheOutcome::kDisabled;
  int64_t queue_wait_ms = 0;       // time spent queued for admission
  int64_t admitted_memory_bytes = 0;  // 0 for exact cache hits (no admission)
  int admitted_threads = 0;
  ExecStats exec;                  // engine counters (empty for exact hits)
};

struct QueryResult {
  /// Shared ownership: cache hits alias the cached table, so results are
  /// returned without copying and survive later evictions.
  std::shared_ptr<const Table> table;
  QueryStats stats;
};

/// Per-query knobs a session may override; -1 fields fall back to the
/// service defaults.
struct SessionQueryOptions {
  int64_t timeout_ms = -1;    // -1 = service default; 0 = no deadline
  int64_t memory_bytes = -1;  // -1 = service default
  int threads = -1;           // -1 = service default
  bool use_cache = true;      // false = bypass (and do not populate) the cache
};

/// The multi-user query service (ROADMAP item 1): one shared engine +
/// catalog, N client sessions, global admission control, and a semantic
/// result cache over the cuboid lattice.
///
/// Query lifecycle (DESIGN.md §11): canonicalize → exact cache lookup →
/// admission (queue / shed) → second-chance exact lookup → lattice roll-up
/// lookup → full execution → cache insert. Budget flows through RAII
/// admission tickets, so completion, cancellation, shed, and crash all
/// release it on the same path.
///
/// Thread-safety: all methods are thread-safe; sessions are the intended
/// unit of client concurrency (one in-flight query per session, any number
/// of sessions). The catalog's tables are borrowed and must outlive the
/// service and stay immutable while it serves (the cache's correctness
/// depends on it).
class QueryService {
 public:
  QueryService(const Catalog& catalog, const QueryServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a client session under `tenant` (the admission fairness key).
  /// Sessions may outlive neither the service nor its tables.
  std::unique_ptr<Session> OpenSession(std::string tenant = "default");

  const Catalog& catalog() const { return catalog_; }
  const QueryServiceOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }
  /// nullptr when the cache is disabled.
  ResultCache* cache() { return cache_.get(); }
  /// nullptr when no block cache is configured (block_cache_bytes == 0).
  BlockCache* block_cache() { return block_cache_.get(); }
  /// The service-wide plan-feedback store (populated only when
  /// collect_feedback is on; always present so callers can inspect it).
  FeedbackStore& feedback() { return feedback_; }
  /// nullptr when query_history_capacity == 0.
  QueryHistory* history() { return history_.get(); }
  int64_t sessions_open() const {
    return sessions_open_.load(std::memory_order_relaxed);
  }

 private:
  friend class Session;

  Result<QueryResult> Execute(Session* session, const PlanPtr& plan,
                              const SessionQueryOptions& query_options);

  /// Execute() minus the history bookkeeping; fills the telemetry fields of
  /// `record` (fingerprints, cache/queue outcomes, engine counters) as the
  /// lifecycle progresses so every early return leaves a meaningful record.
  Result<QueryResult> ExecuteInternal(Session* session, const PlanPtr& plan,
                                      const SessionQueryOptions& query_options,
                                      QueryRecord* record);

  /// Executes `plan` under the minted guard/threads; shared by the roll-up
  /// and full-execution paths. Copies the engine counters into `record`,
  /// and with collect_feedback on runs profiled and reports the per-query
  /// max q-error and CPU time there too.
  Result<Table> RunEngine(const PlanPtr& plan, const Catalog& catalog,
                          QueryGuard* guard, int threads, ExecStats* stats,
                          QueryRecord* record);

  Catalog catalog_;
  const QueryServiceOptions options_;
  AdmissionController admission_;
  std::unique_ptr<ResultCache> cache_;
  // Declared after admission_ so its destructor (which releases external
  // charges through the admission callbacks) runs while admission_ is alive.
  std::unique_ptr<BlockCache> block_cache_;
  FeedbackStore feedback_;
  std::unique_ptr<QueryHistory> history_;
  std::atomic<int64_t> sessions_open_{0};
};

/// A client handle onto the service: issues one query at a time, carries the
/// tenant identity, and supports cross-thread cancellation of whatever phase
/// the current query is in (queued for admission or executing).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes a plan through the service. Blocks through admission; returns
  /// kResourceExhausted (with a retry_after_ms hint) when shed,
  /// kDeadlineExceeded when the deadline expires queued or running, and
  /// kCancelled after Cancel(). One in-flight query per session.
  Result<QueryResult> Execute(const PlanPtr& plan,
                              const SessionQueryOptions& query_options = {});

  /// Parses + binds an ANALYZE BY query string against the service catalog,
  /// then executes it.
  Result<QueryResult> ExecuteQueryString(const std::string& text,
                                         const SessionQueryOptions& query_options = {});

  /// Requests cancellation of the session's in-flight query from any thread:
  /// a queued query leaves the admission queue with kCancelled; a running
  /// one trips its guard at the next stride check. Sticky until the next
  /// Execute call observes it; a Cancel with no query in flight cancels the
  /// next Execute at its first checkpoint.
  void Cancel();

  const std::string& tenant() const { return tenant_; }

 private:
  friend class QueryService;
  Session(QueryService* service, std::string tenant);

  /// Publishes/withdraws the running query's guard for Cancel().
  void SetActiveGuard(QueryGuard* guard) MDJ_EXCLUDES(mu_);
  /// Resets the sticky cancel flag at query start; returns true if a cancel
  /// was already pending (the query then fails before any work).
  bool ConsumePendingCancel();

  QueryService* const service_;
  const std::string tenant_;
  std::atomic<bool> cancel_requested_{false};
  Mutex mu_;
  QueryGuard* active_guard_ MDJ_GUARDED_BY(mu_) = nullptr;
};

}  // namespace mdjoin

#endif  // MDJOIN_SERVER_QUERY_SERVICE_H_
