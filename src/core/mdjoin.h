#ifndef MDJOIN_CORE_MDJOIN_H_
#define MDJOIN_CORE_MDJOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/agg_spec.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "expr/expr.h"
#include "table/table.h"

namespace mdjoin {

/// Evaluation knobs for MdJoin(). The defaults give the fully-optimized
/// single-operator plan; benches flip individual flags to ablate each
/// optimization from the paper.
struct MdJoinOptions {
  /// §4.5: hash the base relation on the equi part of θ so each detail tuple
  /// only visits (a superset of) its relative set Rel(t). When false,
  /// Algorithm 3.1 degenerates to the nested loop of its literal statement.
  bool use_index = true;

  /// Theorem 4.2: evaluate the R-only conjuncts of θ first and skip
  /// non-qualifying detail tuples before probing.
  bool push_detail_selection = true;

  /// §4.1.1 / Theorem 4.1: maximum number of base rows processed per pass
  /// over the detail relation, simulating a memory budget for B. 0 means
  /// unlimited (single pass). With a budget of m rows and |B| = n, the
  /// evaluator makes ceil(n/m) passes, exactly the trade the paper describes:
  /// "a well-defined increase in the number of scans of R".
  int64_t base_rows_per_pass = 0;

  /// Worker threads for every MD-join route (core/detail_scan.h): 1
  /// (default) scans inline on the calling thread; N > 1 runs N workers that
  /// pull detail morsels from one shared cursor into thread-local partial
  /// states, merged pairwise once the cursor drains. Values < 1 mean 1.
  int num_threads = 1;

  /// Optional per-query resource governor (cancellation, deadline, memory
  /// accounting, work budgets), shared by every operator/pass/worker of one
  /// query. Not owned; must outlive the call. When the guard carries a soft
  /// memory budget, every MD-join route degrades to multi-pass evaluation
  /// (Theorem 4.1) under pressure instead of failing.
  QueryGuard* guard = nullptr;

  /// Debug invariant mode: the plan executor runs the full static analyzer
  /// (analyze/plan_analyzer.h) over the plan before executing it and fails
  /// fast with a structured diagnostic instead of evaluating an ill-formed
  /// tree. Also enabled (independently of this flag) by setting the
  /// MDJOIN_VERIFY_PLANS environment variable to a non-empty value other
  /// than "0". Ignored by the low-level MdJoin() table entry point, which
  /// has no plan to verify.
  bool verify_plans = false;

  // --- Out-of-core knobs (storage/out_of_core.h consumes these; the
  // in-memory MdJoin() ignores them). Declared here, opaquely, so one options
  // struct travels the whole stack without core linking against storage. ---

  /// Shared decoded-block cache for paged detail scans; not owned, may be
  /// null (every fault then decodes fresh — correct, just slower).
  class BlockCache* block_cache = nullptr;

  /// Allow the paged driver to hash-partition B and R to spill files when the
  /// guard's soft memory budget cannot hold the aggregate state, instead of
  /// (or after) degrading to Theorem-4.1 multi-pass.
  bool enable_spill = false;

  /// Directory for spill partition files; empty picks the system temp dir.
  std::string spill_dir;

  /// Spill fan-out; 0 sizes it from the guard budget (clamped to [2, 64]).
  int spill_partitions = 0;

  /// Plan-fingerprint feedback store (stats/feedback.h), opaque for the same
  /// layering reason as block_cache: core never dereferences it. When set,
  /// EXPLAIN ANALYZE estimates cardinalities from it and harvests measured
  /// ones back into it after a complete run. Not owned, may be null.
  class FeedbackStore* feedback = nullptr;
};

/// Engine-side byte estimates used by the guard's memory accountant. They
/// deliberately over-approximate container overhead a little: the accountant
/// exists to bound blow-ups and trigger degradation, not to audit malloc.
constexpr int64_t kGuardBytesPerAggState = 64;        // one AggregateState
constexpr int64_t kGuardBytesPerIndexedBaseRow = 128; // BaseIndex entry
constexpr int64_t kGuardBytesPerOutputCell = 48;      // one materialized Value

/// The relative-set map of a base-values relation B that a generator built
/// from the detail relation R itself (cube/base_tables.h CuboidsFromFinest),
/// for θ whose equi part is exactly B.d = R.d over `dims` with no B-only
/// conjunct (analyze/plan_analyzer.h CertifyGroupIds). Detail row t belongs
/// to the finest group g = row_group[t], and Rel(t) is the `stride` base rows
/// base_rows[g * stride, (g + 1) * stride): one per generated cuboid, in
/// generation order (a repeated grouping set lists each copy). g is -1 when
/// one of t's dims is NULL, which θ-equality matches to nothing, not even
/// ALL. Gray et al. derive every super-aggregate of a cube from the core
/// group-by's groups; this is that derivation, as row ids.
struct GroupIdMap {
  std::vector<std::string> dims;
  std::vector<int32_t> row_group;  // one finest group id per row of R
  std::vector<int64_t> base_rows;  // each finest group's relative set
  int64_t stride = 0;              // base rows per finest group
  /// Why θ's verdict can differ from group membership, so the map must not
  /// stand in for it: a key column holding NaN (equal to nothing, yet
  /// grouped), ALL (a wildcard), or both int64 and float64 cells. Null when
  /// the map is exact.
  const char* unusable = nullptr;

  /// What the guard charges for the map while a join reads it.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(row_group.size() * sizeof(int32_t) +
                                base_rows.size() * sizeof(int64_t));
  }
};

/// How an MD-join found each detail tuple's relative set Rel(t).
enum class RelativeSetRoute {
  kNestedLoop,  // every active base row is a candidate (no equi part, or no index)
  kIndex,       // a BaseIndex over B's equi keys (§4.5)
  kGroupIds,    // the generator's GroupIdMap
};

const char* RelativeSetRouteName(RelativeSetRoute route);

/// Work counters of one MD-join evaluation, the same fields on every route
/// (in-memory, paged, spill; any thread count); incremented across all
/// passes.
struct MdJoinStats {
  int64_t base_rows = 0;
  int64_t detail_rows_scanned = 0;   // tuples read from R, per pass and fragment
  int64_t detail_rows_qualified = 0; // tuples kept by any component's pushdown
  int64_t candidate_pairs = 0;       // (b, t) pairs tested after index pruning
  int64_t matched_pairs = 0;         // pairs satisfying θ
  int64_t agg_updates = 0;           // matched pairs × their component's aggregates
  int64_t passes_over_detail = 0;    // 1 unless base_rows_per_pass forces more
  int64_t index_masks = 0;           // ALL-mask buckets in the base index
  int64_t base_rows_per_pass_effective = 0;  // after guard memory degradation
  bool memory_degraded = false;      // guard budget forced extra passes

  int64_t blocks = 0;                // detail blocks processed (all passes)
  int64_t kernel_invocations = 0;    // columnar predicate kernel runs
  int64_t kernel_fallback_rows = 0;  // rows filtered per-row inside blocks
  int64_t dense_blocks = 0;          // blocks whose selection stayed all-rows

  // How relative sets were found. `route_reason` says why a GroupIdMap the
  // caller handed in was not used (a static string; null when none was
  // offered or the map ran).
  RelativeSetRoute route = RelativeSetRoute::kNestedLoop;
  const char* route_reason = nullptr;

  // How the plan executor read R: "in_place" (the catalog's own table),
  // "blocks" (a paged table, block by block) or "materialized" (an executed
  // plan); null when the caller handed the join a relation. `folded` is the
  // selection on R the executor folded into every θ instead of filtering R
  // (Theorem 4.2 read right to left); null when there was none.
  const char* read = nullptr;
  ExprPtr folded;
  // The columns of R a paged read decoded from each block, in schema order
  // (PagedSource); empty when R was read in memory.
  std::vector<std::string> columns;

  // Driver phases, wall ms summed over passes: relative-set setup (binding,
  // index build or map charge), the detail scan (kernels, probes, updates),
  // the worker-partial merge, and finalizing the output table.
  double setup_ms = 0;
  double scan_ms = 0;
  double merge_ms = 0;
  double finalize_ms = 0;

  // Cube-index probe counters (BaseIndex::ProbeScratch): probes of a
  // multi-bucket index with a non-NULL key, and those answered by a
  // code-key memo hit instead of the per-bucket walk. Zero for
  // single-bucket indexes (non-cube θ), group-id joins and unindexed joins.
  int64_t index_probe_lookups = 0;
  int64_t index_probe_memo_hits = 0;

  // Scheduling: workers that scanned, morsels they claimed, and the drained
  // cursor polls that ended each worker's pull loop.
  int threads = 0;
  int64_t morsels = 0;
  int64_t steal_waits = 0;

  // Out-of-core counters (storage/out_of_core.cc); zero on in-memory runs.
  // blocks_read = faulted + cache hits; pruned blocks were refuted by their
  // zone maps and never decoded.
  int64_t blocks_read = 0;
  int64_t blocks_pruned = 0;
  int64_t blocks_faulted = 0;   // loader actually ran (cache miss or no cache)
  int64_t block_cache_hits = 0;
  int64_t spill_partitions = 0; // partition pairs spilled and joined
  int64_t spill_bytes_written = 0;

  /// Adds `other`'s counters and phase times into this one — a worker's
  /// share into its driver, or a spill partition's join into the spill
  /// driver. base_rows, base_rows_per_pass_effective, threads, the route and
  /// how R was read (its columns included) describe one evaluation and are
  /// left alone.
  void Accumulate(const MdJoinStats& other);

  std::string ToString() const;
};

/// One (aggregate list, θ) component of a generalized MD-join; the plain
/// MD-join is the single-component case.
struct MdJoinComponent {
  std::vector<AggSpec> aggs;
  ExprPtr theta;
};

/// The MD-join MD(B, R, l, θ) of Definition 3.1, evaluated with
/// Algorithm 3.1.
///
/// Output: every row of `base` (in order) extended with one column per
/// AggSpec in `aggs`, aggregating the multiset RNG(b, R, θ) = {t ∈ R :
/// θ(b,t)}. Row count always equals base.num_rows() — the outer-join
/// semantics that makes pivoting queries come out right (Example 2.2).
///
/// `theta` references base columns via Side::kBase (dsl::BCol) and detail
/// columns via Side::kDetail (dsl::RCol); equality is ALL-wildcard (cube
/// rows aggregate at their granularity). Aggregate arguments are expressions
/// over the detail row.
///
/// `groups`, when given, is the map the generator of `base` built from
/// `detail` (see GroupIdMap); relative sets are then read by group id instead
/// of probing an index, with the same result.
Result<Table> MdJoin(const Table& base, const Table& detail,
                     const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                     const MdJoinOptions& options = {}, MdJoinStats* stats = nullptr,
                     const GroupIdMap* groups = nullptr);

/// Intra-operator parallel MD-join (§4.1.2): Theorem 4.1 splits the base
/// relation into `num_partitions` fragments, all evaluated against the full
/// detail relation in the same pass (unless base_rows_per_pass or the guard's
/// budget stages them over more); the result is in base order. Total scan
/// work is num_partitions × |R| — the theorem trades scan volume for
/// parallelism. `num_threads` workers pull (fragment, morsel) units from one
/// shared cursor, so fragment skew does not bind the critical path to the
/// slowest fragment. Overrides options.num_threads.
Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options = {},
                             MdJoinStats* stats = nullptr);

}  // namespace mdjoin

#endif  // MDJOIN_CORE_MDJOIN_H_
