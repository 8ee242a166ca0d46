#ifndef MDJOIN_MDJOIN_MDJOIN_H_
#define MDJOIN_MDJOIN_MDJOIN_H_

/// Umbrella header: the full public API of the mdjoin engine.
///
/// Layers, bottom to top:
///  - common/   Status, Result<T>, logging, random, timing, thread pool
///  - types/    Value (with the ALL roll-up marker), Schema
///  - table/    columnar Table, builder, structural ops, CSV
///  - expr/     θ-condition expression trees over (base, detail) row pairs
///  - agg/      aggregate functions (UDAF-style), specs, roll-up rewrites
///  - ra/       classical relational algebra (σ, π, joins, Σ) for baselines
///  - cube/     ALL-marker cube machinery, PIPESORT, partitioned cube
///  - core/     the MD-join operator (Definition 3.1 / Algorithm 3.1): one
///             driver for every route, plain or generalized, any thread count
///  - optimizer plan IR + the §4 theorem rewrites + executor + cost model
///  - analyze/  the §5 ANALYZE BY query language
///  - stats/    table statistics, plan feedback, and the query-history log
///  - obs/      tracing, metrics, and EXPLAIN ANALYZE query profiles
///  - workload/ synthetic Sales/Payments generators

#include "agg/agg_spec.h"
#include "agg/aggregate.h"
#include "analyze/binder.h"
#include "analyze/parser.h"
#include "analyze/plan_analyzer.h"
#include "analyze/plan_invariants.h"
#include "analyze/range_analysis.h"
#include "expr/verifier.h"
#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/generalized.h"
#include "core/incremental.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "cube/lattice.h"
#include "cube/partitioned_cube.h"
#include "cube/pipesort.h"
#include "cube/subcube_selection.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/expr.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "optimizer/rules.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "ra/project.h"
#include "server/admission.h"
#include "server/query_service.h"
#include "server/result_cache.h"
#include "stats/feedback.h"
#include "stats/query_log.h"
#include "stats/table_stats.h"
#include "storage/block_cache.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "storage/spill.h"
#include "table/csv.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "types/schema.h"
#include "types/value.h"
#include "workload/generators.h"

#endif  // MDJOIN_MDJOIN_MDJOIN_H_
