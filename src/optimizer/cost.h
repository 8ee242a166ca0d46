#ifndef MDJOIN_OPTIMIZER_COST_H_
#define MDJOIN_OPTIMIZER_COST_H_

#include "optimizer/plan.h"

namespace mdjoin {

class FeedbackStore;

/// Estimated cost of a plan. `work` is in abstract row-touch units:
/// tuples scanned plus candidate pairs tested plus rows materialized.
/// Deliberately simple — the point (paper §4) is that MD-join plans become
/// amenable to ordinary cost-based optimization once the transformations
/// exist; the constants here only need to rank alternatives sensibly.
struct PlanCost {
  double output_rows = 0;
  double work = 0;
};

/// Q-error of an estimate against a measurement: max(est/act, act/est) with
/// both sides floored at one row, so it is always >= 1 and symmetric in
/// over- vs. under-estimation. 1.0 means the estimate was exact.
double QError(double estimated_rows, double actual_rows);

/// FNV-1a fingerprint of the canonical ExplainPlan rendering of `plan` —
/// the identity under which the feedback store accumulates measurements.
/// The same rendering keys the server's result cache, so feedback, caching,
/// and the query log all agree on what "the same plan" means.
uint64_t PlanFingerprint(const PlanPtr& plan);

/// Fallback heuristics, used when no statistics or feedback cover a node
/// (documented so benches can reason about rankings):
///  - TableRef: |T| rows, no work.
///  - Filter: selectivity 0.3; Distinct: 0.6 of child rows.
///  - CuboidBase with k cuboids: k × 0.2 × child rows, from one scan of the
///    child.
///  - MD-join: one scan of R plus, per component, |R| index probes with an
///    equi conjunct or |R| × |B| pairs without (nested loop). Output rows =
///    |B|.
///  - HashJoin: |L| + |R|; Union: sum; Partition: child / count.
///
/// When the catalog carries AnalyzeTable statistics (Catalog::FindStats),
/// cardinalities come from them instead: filters over a scanned table use
/// per-conjunct histogram/NDV selectivities, and Distinct and each cuboid of
/// a CuboidBase use NDV products clamped to the input size. When a feedback
/// store is supplied, a node whose fingerprint has been observed uses the
/// measured output cardinality outright — measurements beat models.
Result<PlanCost> EstimateCost(const PlanPtr& plan, const Catalog& catalog);
Result<PlanCost> EstimateCost(const PlanPtr& plan, const Catalog& catalog,
                              const FeedbackStore* feedback);

/// Returns the index of the cheapest plan by `work`. Errors if empty or if
/// any estimate fails — a minimal cost-based chooser for rule alternatives.
Result<size_t> ChooseCheapestPlan(const std::vector<PlanPtr>& alternatives,
                                  const Catalog& catalog);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_COST_H_
