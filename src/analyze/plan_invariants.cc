#include "analyze/plan_invariants.h"

#include <cstdlib>

#include "expr/bytecode.h"
#include "expr/verifier.h"

namespace mdjoin {

std::vector<AnalyzerDiagnostic> CheckPlanInvariants(const PlanPtr& plan,
                                                    const Catalog& catalog) {
  if (plan == nullptr) {
    return {{DiagSeverity::kError, "root", "invariant", "plan is null"}};
  }
  Result<PlanAnalysis> analysis = AnalyzePlan(plan, catalog);
  if (!analysis.ok()) {
    return {{DiagSeverity::kError, "root", "invariant", analysis.status().message()}};
  }
  return std::move(*analysis).diagnostics;
}

Status VerifyPlan(const PlanPtr& plan, const Catalog& catalog, const char* context) {
  std::vector<AnalyzerDiagnostic> diags = CheckPlanInvariants(plan, catalog);
  int errors = 0;
  const AnalyzerDiagnostic* first = nullptr;
  for (const AnalyzerDiagnostic& d : diags) {
    if (d.severity != DiagSeverity::kError) continue;
    if (first == nullptr) first = &d;
    ++errors;
  }
  if (first == nullptr) return Status::OK();
  return Status::InvalidArgument("plan verification failed in ", context, ": ",
                                 first->ToString(), " (", errors,
                                 " error diagnostic", errors == 1 ? "" : "s", ")");
}

namespace {

/// One θ's worth of report lines: verifier verdict + range facts.
void ReportTheta(const std::string& path, const ExprPtr& theta,
                 const Schema* base_schema, const Schema* detail_schema,
                 std::vector<std::string>* out) {
  if (theta == nullptr) return;
  // Verifier verdict. θ may fail to lower (a child schema that could not be
  // inferred, a CASE mixing string and numeric arms) — that is a report
  // line, not an error.
  Result<BytecodeExpr> bc = BytecodeExpr::Compile(theta, base_schema, detail_schema);
  if (bc.ok()) {
    VerifierReport report = VerifyBytecode(*bc, base_schema, detail_schema);
    out->push_back(path + ": θ bytecode " + report.ToString());
  } else {
    out->push_back(path + ": θ not lowered to bytecode (" +
                   bc.status().message() + ")");
  }
  // Interval abstract interpretation.
  RangeAnalysis ranges = AnalyzeRanges(theta);
  if (!ranges.satisfiable) {
    out->push_back(path + ": θ UNSATISFIABLE — " + ranges.unsat_reason);
  }
  for (const RangeFact& f : ranges.facts) {
    out->push_back(path + ": range " + f.ToString());
  }
  for (const ZoneMapPredicate& z : ranges.zone_predicates) {
    out->push_back(path + ": zone-map " + z.ToString());
  }
}

void ReportNode(const PlanPtr& plan, const Catalog& catalog,
                const std::string& path, std::vector<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kMdJoin ||
      plan->kind() == PlanKind::kGeneralizedMdJoin) {
    // Schemas are needed to lower θ; an un-inferable child degrades the
    // verifier line to "not lowered" rather than failing the report.
    Result<Schema> base_schema = InferSchema(plan->child(0), catalog);
    Result<Schema> detail_schema = InferSchema(plan->child(1), catalog);
    const Schema* bs = base_schema.ok() ? &*base_schema : nullptr;
    const Schema* ds = detail_schema.ok() ? &*detail_schema : nullptr;
    if (plan->kind() == PlanKind::kMdJoin) {
      ReportTheta(path, plan->theta, bs, ds, out);
    } else {
      for (size_t i = 0; i < plan->components.size(); ++i) {
        ReportTheta(path + "#" + std::to_string(i), plan->components[i].theta, bs,
                    ds, out);
      }
    }
  }
  for (size_t i = 0; i < plan->children().size(); ++i) {
    ReportNode(plan->child(i), catalog, path + "/" + std::to_string(i), out);
  }
}

}  // namespace

std::vector<std::string> StaticAnalysisReport(const PlanPtr& plan,
                                              const Catalog& catalog) {
  std::vector<std::string> out;
  ReportNode(plan, catalog, "root", &out);
  return out;
}

bool VerifyPlansEnabledByEnv() {
  static const bool enabled = [] {
    const char* v = std::getenv("MDJOIN_VERIFY_PLANS");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

}  // namespace mdjoin
