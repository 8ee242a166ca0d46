#include "optimizer/optimize.h"

#include "analyze/plan_invariants.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/cost.h"
#include "optimizer/rules.h"

namespace mdjoin {

std::string OptimizeReport::ToString() const {
  std::string out;
  for (const std::string& entry : applied) {
    out += entry;
    out += "\n";
  }
  return out;
}

namespace {

/// Applies `candidate` if it succeeded and does not increase estimated work.
/// Returns true when the plan was replaced; returns a non-OK status only in
/// verify_plans mode, when the accepted rewrite fails static verification.
Result<bool> Accept(const Result<PlanPtr>& candidate, const Catalog& catalog,
                    const OptimizeOptions& options, const char* rule_name,
                    PlanPtr* plan, OptimizeReport* report,
                    std::vector<RewriteRecord>* rewrite_log) {
  if (!candidate.ok()) return false;
  Result<PlanCost> before = EstimateCost(*plan, catalog);
  Result<PlanCost> after = EstimateCost(*candidate, catalog);
  if (!before.ok() || !after.ok()) {
    // The rule matched but the cost model could not certify the rewrite, so
    // the decision still deserves a record: keep whichever side estimated
    // (-1 marks the missing one) and name the failing estimate.
    if (rewrite_log != nullptr) {
      RewriteRecord record;
      record.rule = rule_name;
      record.node = (*plan)->Label();
      record.accepted = false;
      record.cost_before = before.ok() ? before->work : -1;
      record.cost_after = after.ok() ? after->work : -1;
      record.detail = "rejected: cost estimate failed: " +
                      (before.ok() ? after.status() : before.status()).ToString();
      rewrite_log->push_back(std::move(record));
    }
    return false;
  }

  // The rule produced a candidate, so the decision (either way) is worth a
  // rewrite record: rule, target node, and the cost certificate.
  RewriteRecord record;
  record.rule = rule_name;
  record.node = (*plan)->Label();
  record.cost_before = before->work;
  record.cost_after = after->work;

  if (after->work > before->work) {
    record.accepted = false;
    record.detail = "rejected: estimated work would increase";
    if (rewrite_log != nullptr) rewrite_log->push_back(std::move(record));
    return false;
  }
  if (options.verify_plans || VerifyPlansEnabledByEnv()) {
    MDJ_RETURN_NOT_OK(VerifyPlan(*candidate, catalog, rule_name));
  }
  *plan = *candidate;
  record.accepted = true;
  record.detail = "accepted: estimated work " +
                  std::to_string(static_cast<long long>(before->work)) + " -> " +
                  std::to_string(static_cast<long long>(after->work));
  if (rewrite_log != nullptr) rewrite_log->push_back(std::move(record));
  if (report != nullptr) {
    report->applied.push_back(std::string(rule_name) + " (work " +
                              std::to_string(static_cast<long long>(before->work)) +
                              " -> " +
                              std::to_string(static_cast<long long>(after->work)) + ")");
  }
  return true;
}

Result<PlanPtr> OptimizeRec(const PlanPtr& plan, const Catalog& catalog,
                            const OptimizeOptions& options, OptimizeReport* report,
                            std::vector<RewriteRecord>* rewrite_log);

/// Fusion must fire on the whole chain: bottom-up, the inner MD-joins would
/// fuse first, and a fused (multi-component) node ends FuseMdJoinSeries's
/// walk down the chain, so the outer joins could no longer join its
/// generation. So chains fuse top-down before the regular bottom-up pass.
Result<PlanPtr> TryFuseChainFirst(const PlanPtr& plan, const Catalog& catalog,
                                  const OptimizeOptions& options,
                                  OptimizeReport* report,
                                  std::vector<RewriteRecord>* rewrite_log,
                                  bool* fused) {
  *fused = false;
  if (plan->kind() != PlanKind::kMdJoin || plan->child(0)->kind() != PlanKind::kMdJoin) {
    return plan;
  }
  PlanPtr current = plan;
  MDJ_ASSIGN_OR_RETURN(bool accepted,
                       Accept(FuseMdJoinSeries(current), catalog, options,
                              "Theorem 4.3 fusion", &current, report, rewrite_log));
  *fused = accepted;
  return current;
}

Result<PlanPtr> OptimizeRec(const PlanPtr& plan, const Catalog& catalog,
                            const OptimizeOptions& options, OptimizeReport* report,
                            std::vector<RewriteRecord>* rewrite_log) {
  {
    bool fused = false;
    MDJ_ASSIGN_OR_RETURN(
        PlanPtr maybe_fused,
        TryFuseChainFirst(plan, catalog, options, report, rewrite_log, &fused));
    if (fused) return OptimizeRec(maybe_fused, catalog, options, report, rewrite_log);
  }
  // Children first.
  std::vector<PlanPtr> new_children;
  bool changed = false;
  new_children.reserve(plan->children().size());
  for (const PlanPtr& child : plan->children()) {
    MDJ_ASSIGN_OR_RETURN(PlanPtr rewritten,
                         OptimizeRec(child, catalog, options, report, rewrite_log));
    changed = changed || rewritten != child;
    new_children.push_back(std::move(rewritten));
  }
  PlanPtr current = changed ? CloneWithChildren(plan, std::move(new_children)) : plan;

  constexpr int kMaxRounds = 4;  // fixpoint guard per node
  for (int round = 0; round < kMaxRounds; ++round) {
    bool fired = false;
    bool accepted = false;
    if (current->kind() == PlanKind::kMdJoin) {
      MDJ_ASSIGN_OR_RETURN(
          accepted, Accept(ApplyUnsatThetaRewrite(current, catalog), catalog, options,
                           "unsat-θ empty-result", &current, report, rewrite_log));
      if (accepted) {
        static Counter* unsat_rewrites = MetricsRegistry::Global().GetCounter(
            "mdjoin_unsat_theta_rewrites_total",
            "MD-joins whose detail child was replaced by an empty relation "
            "because interval analysis proved θ unsatisfiable");
        unsat_rewrites->Increment();
      }
      fired |= accepted;
    }
    if (current->kind() == PlanKind::kMdJoin) {
      MDJ_ASSIGN_OR_RETURN(accepted,
                           Accept(FuseMdJoinSeries(current), catalog, options,
                                  "Theorem 4.3 fusion", &current, report, rewrite_log));
      fired |= accepted;
    }
    if (current->kind() == PlanKind::kMdJoin) {
      MDJ_ASSIGN_OR_RETURN(accepted,
                           Accept(ApplyBaseSelectionTransfer(current), catalog, options,
                                  "Observation 4.1 selection transfer", &current,
                                  report, rewrite_log));
      fired |= accepted;
    }
    if (!fired) break;
  }
  return current;
}

}  // namespace

Result<PlanPtr> OptimizePlan(const PlanPtr& plan, const Catalog& catalog,
                             const OptimizeOptions& options, OptimizeReport* report,
                             std::vector<RewriteRecord>* rewrite_log) {
  if (plan == nullptr) return Status::InvalidArgument("OptimizePlan: null plan");
  return OptimizeRec(plan, catalog, options, report, rewrite_log);
}

}  // namespace mdjoin
