#ifndef MDJOIN_OPTIMIZER_RULES_H_
#define MDJOIN_OPTIMIZER_RULES_H_

#include "optimizer/plan.h"

namespace mdjoin {

/// Algebraic rewrite rules, one per result in the paper's §4. Each rule takes
/// a plan whose root matches the rule's pattern and returns the rewritten
/// plan, or an InvalidArgument status explaining why the rule does not apply
/// (pattern mismatch or violated precondition). Every precondition is decided
/// statically by a PlanAnalyzer certificate (analyze/plan_analyzer.h); the
/// property tests that execute both sides of every rewrite remain as a
/// dynamic backstop, and verify_plans mode re-runs the analyzer after each
/// accepted rewrite.

/// Theorem 4.1 — base-values partitioning:
///   MD(B, R, l, θ) = ∪_{i<m} MD(B_i, R, l, θ)
/// Rewrites the root MD-join into a union of MD-joins over an m-way row
/// split of B. Each fragment re-scans R (the trade the theorem prices:
/// memory-resident fragments for extra scans, or fragments on m processors).
Result<PlanPtr> ApplyBasePartitioning(const PlanPtr& plan, int num_partitions);

/// Observation 4.1 — base-selection transfer: for a root of shape
/// MD(σ_c(B), R, l, θ) where every B-attribute referenced by c is bound to an
/// R-side expression by an equi conjunct of θ, also wraps the detail child in
/// σ_{c'} with the attribute references substituted. The base σ is retained
/// (the output must still contain only σ_c(B)'s rows).
Result<PlanPtr> ApplyBaseSelectionTransfer(const PlanPtr& plan);

/// Statically-unsatisfiable θ: when the interval abstract interpretation
/// (analyze/range_analysis.h, via CertifyUnsatTheta) proves that no
/// (base, detail) pair can satisfy the root MD-join's θ, replaces the detail
/// child with an EmptyRef carrying the detail schema:
///   MD(B, R, l, θ)  =  MD(B, ∅_R, l, θ)      (θ unsatisfiable)
/// MD-join outer semantics are preserved bit-for-bit — every base row still
/// appears, with each aggregate finalized over the empty multiset — but R is
/// never scanned. `catalog` is needed to infer R's schema for the EmptyRef.
Result<PlanPtr> ApplyUnsatThetaRewrite(const PlanPtr& plan, const Catalog& catalog);

/// Theorem 4.3 — series fusion: rewrites a chain of nested MD-joins
/// MD(MD(...MD(B, R, l1, θ1)..., R, lk, θk)) into the minimal stack of
/// generalized MD-joins. Dependency analysis assigns each component the
/// earliest generation whose θ references no output of a later-or-equal
/// generation; same-generation components over structurally identical detail
/// subplans fuse into one generalized MD-join (k scans of R become one per
/// generation). Returns the (possibly unchanged) rewritten plan.
Result<PlanPtr> FuseMdJoinSeries(const PlanPtr& plan);

/// Theorem 4.3 — commutativity: swaps two adjacent MD-joins
///   MD(MD(B, R1, l1, θ1), R2, l2, θ2) = MD(MD(B, R2, l2, θ2), R1, l1, θ1)
/// Precondition: θ2 references only attributes of B (not l1's outputs).
/// `catalog` is needed to infer B's schema for the check.
Result<PlanPtr> CommuteMdJoins(const PlanPtr& plan, const Catalog& catalog);

/// Theorem 4.4 — split into an equijoin of independent MD-joins:
///   MD(MD(B, R1, l1, θ1), R2, l2, θ2) = MD(B, R1, l1, θ1) ⋈_B MD(B, R2, l2, θ2)
/// Preconditions: θ2 references only attributes of B (provenance-checked by
/// CertifyOuterIndependence), and B's rows are distinct — the theorem's
/// standing assumption, for which the rule now demands structural evidence
/// from CertifyBaseDistinct (a Distinct node, or a cuboid generator listing
/// no cuboid twice, below distinctness-preserving operators). Without
/// evidence the rule returns InvalidArgument naming the offending node
/// instead of trusting callers. Enables moving each MD-join to its
/// relation's site.
Result<PlanPtr> SplitToEquiJoin(const PlanPtr& plan, const Catalog& catalog);

/// Theorem 4.5 — roll-up: for a root of shape
/// MD(CuboidBase(S, dims, coarse), R, l, θ_eq) with l distributive and
/// coarse ⊂ finer, re-bases the aggregation on the finer cuboid:
///   MD(CuboidBase(coarse), MD(CuboidBase(finer), R, l, θ), l', θ)
/// where l' re-aggregates l's outputs (count → sum). The inner MD-join is the
/// finer cuboid's computation; the outer one reads |finer| rows instead of
/// |R|.
Result<PlanPtr> ApplyRollup(const PlanPtr& plan, CuboidMask finer_mask);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_RULES_H_
