#include "optimizer/rules.h"

#include <algorithm>
#include <utility>

#include "analyze/plan_analyzer.h"

namespace mdjoin {

// Every rule's legality precondition is decided by a PlanAnalyzer certificate
// (analyze/plan_analyzer.h) — the rules contain no private θ classification
// or provenance guessing. A rule's job here is purely the tree surgery; the
// certificate is the proof it is allowed.

namespace {

Status NotApplicable(const char* rule, const std::string& why) {
  return Status::InvalidArgument(rule, ": rule not applicable: ", why);
}

bool IsMdJoin(const PlanPtr& p) { return p->kind() == PlanKind::kMdJoin; }

/// Structural plan identity via the explain rendering (labels carry the full
/// payload). Used to decide whether two detail subplans are "the same
/// relation" for fusion.
bool SamePlan(const PlanPtr& a, const PlanPtr& b) {
  return a == b || ExplainPlan(a) == ExplainPlan(b);
}

}  // namespace

Result<PlanPtr> ApplyBasePartitioning(const PlanPtr& plan, int num_partitions) {
  if (!IsMdJoin(plan)) return NotApplicable("Theorem 4.1", "root is not an MD-join");
  if (num_partitions < 1) {
    return NotApplicable("Theorem 4.1", "partition count must be >= 1");
  }
  std::vector<PlanPtr> pieces;
  pieces.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    pieces.push_back(CloneWithChildren(
        plan, {PartitionPlan(plan->child(0), i, num_partitions), plan->child(1)}));
  }
  return UnionPlan(std::move(pieces));
}

Result<PlanPtr> ApplyBaseSelectionTransfer(const PlanPtr& plan) {
  MDJ_ASSIGN_OR_RETURN(TransferCertificate cert, CertifyEquiTransfer(plan));
  const PlanPtr& base = plan->child(0);
  const ExprPtr& sel = base->predicate;
  // Substitute B attributes with R key expressions. The resulting predicate
  // references R via kDetail, exactly the frame a Filter over R expects.
  ExprPtr detail_sel = Expr::SubstituteColumns(sel, Side::kDetail, cert.substitution);
  // Idempotence guard: the pattern (base is a Filter) persists after the
  // rewrite, so a rule driver would otherwise stack the same σ on R every
  // round. If the detail child already carries this predicate, we are done.
  if (plan->child(1)->kind() == PlanKind::kFilter &&
      plan->child(1)->predicate->ToString() == detail_sel->ToString()) {
    return NotApplicable("Observation 4.1", "selection already transferred");
  }
  return CloneWithChildren(plan, {base, FilterPlan(plan->child(1), std::move(detail_sel))});
}

Result<PlanPtr> ApplyUnsatThetaRewrite(const PlanPtr& plan, const Catalog& catalog) {
  if (!IsMdJoin(plan)) return NotApplicable("unsat-θ", "root is not an MD-join");
  // Idempotence guard: once the detail child is an EmptyRef the rewrite has
  // already happened; re-proving unsatisfiability every round is wasted work.
  if (plan->child(1)->kind() == PlanKind::kEmptyRef) {
    return NotApplicable("unsat-θ", "detail child is already empty");
  }
  MDJ_ASSIGN_OR_RETURN(UnsatThetaCertificate cert, CertifyUnsatTheta(plan));
  (void)cert;
  MDJ_ASSIGN_OR_RETURN(Schema detail_schema, InferSchema(plan->child(1), catalog));
  // θ is kept on the node: it is provably unsatisfiable, so evaluating it
  // over the empty relation is free, and keeping it preserves the plan's
  // self-description (EXPLAIN still shows the original condition).
  return CloneWithChildren(plan, {plan->child(0), EmptyRefPlan(std::move(detail_schema))});
}

Result<PlanPtr> FuseMdJoinSeries(const PlanPtr& plan) {
  if (!IsPlainMdJoin(plan)) {
    return NotApplicable("Theorem 4.3", "root is not a one-component MD-join");
  }
  // Collect the chain of nested plain MD-joins, outermost first.
  std::vector<PlanPtr> chain;
  PlanPtr cursor = plan;
  while (IsPlainMdJoin(cursor)) {
    chain.push_back(cursor);
    cursor = cursor->child(0);
  }
  PlanPtr innermost_base = cursor;
  if (chain.size() < 2) {
    return NotApplicable("Theorem 4.3", "series has a single MD-join");
  }
  // Application order: innermost (applied first) to outermost.
  std::reverse(chain.begin(), chain.end());

  // θ-independence analysis: the analyzer assigns each component the
  // earliest generation whose outputs its θ / aggregate arguments do not
  // reference. Same-generation components are mutually independent — the
  // Theorem 4.3 legality condition for fusing them.
  const ChainDependencyCertificate cert = CertifyChainDependencies(chain);
  const size_t k = chain.size();

  // Group components by (generation, detail subplan); emit one MD-join per
  // group, stacked in generation order. Groups keep first-member order within
  // a generation.
  int max_gen = *std::max_element(cert.generation.begin(), cert.generation.end());
  PlanPtr current = innermost_base;
  bool fused_anything = false;
  for (int gen = 0; gen <= max_gen; ++gen) {
    // Partition this generation's members into detail-equality groups.
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < k; ++i) {
      if (cert.generation[i] != gen) continue;
      bool placed = false;
      for (std::vector<size_t>& g : groups) {
        if (SamePlan(chain[g[0]]->child(1), chain[i]->child(1))) {
          g.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({i});
    }
    for (const std::vector<size_t>& g : groups) {
      fused_anything = fused_anything || g.size() > 1;
      std::vector<MdJoinComponent> comps;
      comps.reserve(g.size());
      for (size_t i : g) comps.push_back(chain[i]->components[0]);
      current = GeneralizedMdJoinPlan(current, chain[g[0]]->child(1), std::move(comps));
    }
  }
  if (!fused_anything) {
    return NotApplicable("Theorem 4.3",
                         "no two independent MD-joins share a detail relation");
  }
  return current;
}

Result<PlanPtr> CommuteMdJoins(const PlanPtr& plan, const Catalog& catalog) {
  MDJ_RETURN_NOT_OK(CertifyOuterIndependence(plan, catalog, "Theorem 4.3 (commute)"));
  const PlanPtr& inner = plan->child(0);
  PlanPtr new_inner = CloneWithChildren(plan, {inner->child(0), plan->child(1)});
  return CloneWithChildren(inner, {std::move(new_inner), inner->child(1)});
}

Result<PlanPtr> SplitToEquiJoin(const PlanPtr& plan, const Catalog& catalog) {
  MDJ_RETURN_NOT_OK(CertifyOuterIndependence(plan, catalog, "Theorem 4.4"));
  const PlanPtr& inner = plan->child(0);
  const PlanPtr& b_plan = inner->child(0);
  // The theorem's standing assumption is that B is duplicate-free (otherwise
  // the equijoin multiplies rows). The analyzer must produce structural
  // evidence; without it the rule refuses instead of trusting callers.
  Result<DistinctnessCertificate> distinct = CertifyBaseDistinct(b_plan);
  if (!distinct.ok()) return distinct.status();
  MDJ_ASSIGN_OR_RETURN(Schema base_schema, InferSchema(b_plan, catalog));
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(base_schema.num_fields()));
  for (const Field& f : base_schema.fields()) keys.push_back(f.name);
  PlanPtr right = CloneWithChildren(plan, {b_plan, plan->child(1)});
  return HashJoinPlan(inner, std::move(right), keys, keys, JoinType::kInner);
}

Result<PlanPtr> ApplyRollup(const PlanPtr& plan, CuboidMask finer_mask) {
  MDJ_ASSIGN_OR_RETURN(RollupCertificate cert, CertifyRollup(plan));
  const PlanPtr& base = plan->child(0);
  const CuboidMask coarse = base->cuboid_masks[0];
  if ((coarse & finer_mask) != coarse || coarse == finer_mask) {
    return NotApplicable("Theorem 4.5", "finer mask is not a strict superset");
  }
  const MdJoinComponent& comp = plan->components[0];
  std::vector<AggSpec> rollup_specs;
  rollup_specs.reserve(comp.aggs.size());
  for (const AggSpec& a : comp.aggs) {
    MDJ_ASSIGN_OR_RETURN(AggSpec r, RollupSpec(a));
    rollup_specs.push_back(std::move(r));
  }
  PlanPtr finer_base = CuboidBasePlan(base->child(0), cert.dims, finer_mask);
  PlanPtr finer_cuboid = CloneWithChildren(plan, {std::move(finer_base), plan->child(1)});
  return MdJoinPlan(base, std::move(finer_cuboid), std::move(rollup_specs), comp.theta);
}

}  // namespace mdjoin
