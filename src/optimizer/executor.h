#ifndef MDJOIN_OPTIMIZER_EXECUTOR_H_
#define MDJOIN_OPTIMIZER_EXECUTOR_H_

#include "core/mdjoin.h"
#include "obs/query_profile.h"
#include "optimizer/plan.h"

namespace mdjoin {

/// Work counters accumulated over a whole plan execution, for comparing
/// rewritten plans in the experiment harness.
struct ExecStats {
  int64_t nodes_executed = 0;
  int64_t detail_rows_scanned = 0;   // summed over all (generalized) MD-joins
  int64_t candidate_pairs = 0;
  int64_t matched_pairs = 0;
  int64_t mdjoin_operators = 0;      // MD-join nodes evaluated
  int64_t rows_materialized = 0;     // total output rows across nodes
  int64_t tables_materialized = 0;   // catalog tables copied whole (clone or ReadAll)
  int64_t cse_hits = 0;              // subtree reuses (ExecutePlanCse only)
};

/// Executes `plan` against `catalog`. Every node materializes its result (an
/// in-memory engine in the paper's §4.1.1 spirit), except R where an MD-join
/// (detail child) or a base generator (input) reads it: σ*(TableRef T) there
/// reads T in place or block by block, its selections folded into θ (or the
/// generator's kernels). MD-join nodes run with `md_options`.
Result<Table> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                          const MdJoinOptions& md_options = {},
                          ExecStats* stats = nullptr);

/// ExecutePlan with common-subexpression elimination: structurally identical
/// subtrees (same explain rendering) are evaluated once and their results
/// reused. Rewrites like ExpandCubeBaseWithRollups (Theorem 4.5 chains) build
/// trees where a finer cuboid feeds several coarser ones; the paper notes
/// "usually optimizers perform common subexpression elimination" — this is
/// that step. `stats->cse_hits` counts reuses.
Result<Table> ExecutePlanCse(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options = {},
                             ExecStats* stats = nullptr);

/// EXPLAIN ANALYZE: executes `plan` while recording a per-operator
/// QueryProfile (rows, wall/CPU timings, MD-join scan counters). `profile`
/// must be non-null; its `rewrites` log is preserved (populate it via
/// OptimizePlan's rewrite_log before calling), everything else is reset.
///
/// The profile is always well-formed on return — on a guard trip or operator
/// failure the tree holds partial counts for whatever executed, `complete` is
/// false, and `terminal` carries the error status (the terminal event). The
/// returned Result mirrors that status. No CSE: every node runs, so the
/// numbers reflect the plan as written.
Result<Table> ExplainAnalyze(const PlanPtr& plan, const Catalog& catalog,
                             const MdJoinOptions& md_options, QueryProfile* profile);

/// Convenience wrapper around ExplainAnalyze for callers that only care
/// about the success path.
struct ProfiledResult {
  Table table;
  QueryProfile profile;

  /// QueryProfile::ToText(): indented operator tree + rewrite log + terminal.
  std::string ToString() const;
};

Result<ProfiledResult> ExecutePlanProfiled(const PlanPtr& plan, const Catalog& catalog,
                                           const MdJoinOptions& md_options = {});

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_EXECUTOR_H_
