#include "analyze/plan_analyzer.h"

#include <gtest/gtest.h>

#include "analyze/binder.h"
#include "analyze/plan_invariants.h"
#include "expr/conjuncts.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "optimizer/rules.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr CustTheta() { return Eq(RCol("cust"), BCol("cust")); }

ExprPtr DimsTheta(const std::vector<std::string>& dims) {
  std::vector<ExprPtr> eqs;
  for (const std::string& d : dims) eqs.push_back(Eq(BCol(d), RCol(d)));
  return CombineConjuncts(std::move(eqs));
}

class PlanAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  PlanPtr DistinctCustBase() {
    return DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  }

  /// A base with the right schema but no structural distinctness evidence.
  PlanPtr UndocumentedCustBase() {
    return ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}});
  }

  PlanAnalysis Analyze(const PlanPtr& plan) {
    Result<PlanAnalysis> analysis = AnalyzePlan(plan, catalog_);
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    return *analysis;
  }

  Table sales_;
  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// Whole-plan analysis: schema, provenance, distinctness
// ---------------------------------------------------------------------------

TEST_F(PlanAnalyzerTest, ResolvesSchemaAndProvenance) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, CustTheta());
  PlanAnalysis analysis = Analyze(plan);
  EXPECT_TRUE(analysis.ok()) << analysis.DiagnosticsToString();
  // Post-order: the root is last and addresses the whole plan.
  const NodeAnalysis& root = analysis.root();
  EXPECT_EQ(root.node, plan.get());
  EXPECT_EQ(root.path, "root");
  ASSERT_TRUE(root.schema.has_value());
  EXPECT_EQ(root.schema->ToString(), "cust:int64, n:int64, total:float64");
  // Provenance: cust traces to the sales TableRef, the aggregates to the
  // MD-join that generated them.
  const AttrProvenance* cust = root.FindProvenance("cust");
  ASSERT_NE(cust, nullptr);
  EXPECT_EQ(cust->origin, AttrOrigin::kBaseColumn);
  const AttrProvenance* total = root.FindProvenance("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->origin, AttrOrigin::kAggregate);
  EXPECT_EQ(total->producer, plan.get());
  // The MD-join extends a Distinct base one row per base row, so the output
  // inherits distinctness.
  EXPECT_TRUE(root.rows_distinct) << root.distinct_evidence;
}

TEST_F(PlanAnalyzerTest, ReportsUnboundThetaAttribute) {
  // Satellite: the "unbound attribute" negative — θ references B.nope, which
  // no node produces. The diagnostic is structured: error severity, a path
  // addressing the offending node, and a message naming the attribute.
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("nope")));
  PlanAnalysis analysis = Analyze(plan);
  EXPECT_FALSE(analysis.ok());
  ASSERT_FALSE(analysis.diagnostics.empty());
  const AnalyzerDiagnostic& diag = analysis.diagnostics.front();
  EXPECT_EQ(diag.severity, DiagSeverity::kError);
  EXPECT_EQ(diag.path, "root");
  EXPECT_NE(diag.message.find("nope"), std::string::npos) << diag.ToString();
  EXPECT_NE(diag.ToString().find("[error]"), std::string::npos);
  EXPECT_FALSE(analysis.ToStatus("test").ok());
}

TEST_F(PlanAnalyzerTest, InnerFailureDoesNotCascade) {
  // A broken subtree yields exactly one diagnostic at its own node; parents
  // whose children lack schemas stay silent instead of piling on.
  PlanPtr bad_base = FilterPlan(DistinctCustBase(), Gt(Col("no_such"), Lit(1)));
  PlanPtr plan = MdJoinPlan(bad_base, TableRef("sales"), {Count("n")}, CustTheta());
  PlanAnalysis analysis = Analyze(plan);
  EXPECT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.diagnostics.size(), 1u) << analysis.DiagnosticsToString();
  EXPECT_EQ(analysis.diagnostics.front().path, "root/0");
}

TEST_F(PlanAnalyzerTest, ClassifiesThetaConjuncts) {
  ExprPtr theta = And(Eq(BCol("cust"), RCol("cust")),   // equi-bound
                      Gt(RCol("sale"), Lit(10)),        // detail-only
                      Gt(BCol("cust"), Lit(1)),         // base-only
                      Lt(BCol("cust"), RCol("prod")));  // mixed residual
  ThetaClassification cls = ClassifyTheta(theta);
  ASSERT_EQ(cls.conjuncts.size(), 4u);
  std::multiset<ConjunctClass> seen;
  for (const ClassifiedConjunct& c : cls.conjuncts) seen.insert(c.cls);
  EXPECT_EQ(seen.count(ConjunctClass::kEquiBound), 1u);
  EXPECT_EQ(seen.count(ConjunctClass::kDetailOnly), 1u);
  EXPECT_EQ(seen.count(ConjunctClass::kBaseOnly), 1u);
  EXPECT_EQ(seen.count(ConjunctClass::kResidual), 1u);
  EXPECT_TRUE(cls.HasEquiBinding("cust"));
  EXPECT_FALSE(cls.HasEquiBinding("prod"));
  EXPECT_EQ(cls.base_columns, (std::set<std::string>{"cust"}));
  EXPECT_EQ(cls.detail_columns, (std::set<std::string>{"cust", "prod", "sale"}));
}

TEST_F(PlanAnalyzerTest, DistinctnessEvidence) {
  // Positive: Distinct under a Filter still counts (Filter preserves).
  PlanPtr filtered = FilterPlan(DistinctCustBase(), Gt(Col("cust"), Lit(0)));
  Result<DistinctnessCertificate> cert = CertifyBaseDistinct(filtered);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_NE(cert->evidence.find("Distinct"), std::string::npos);
  // Cuboid base-values generators are distinct by construction.
  EXPECT_TRUE(
      CertifyBaseDistinct(CuboidBasePlan(TableRef("sales"), {"prod"}, 0b1)).ok());
  EXPECT_TRUE(CertifyBaseDistinct(CubeBasePlan(TableRef("sales"), {"prod", "state"})).ok());
  // Negative: a bare projection proves nothing; the error names the blocker.
  Result<DistinctnessCertificate> none = CertifyBaseDistinct(UndocumentedCustBase());
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().ToString().find("no distinctness evidence"),
            std::string::npos)
      << none.status().ToString();
}

/// A generator claims distinct rows only when its cuboid list has no
/// repeats: grouping_sets may list a set twice and emits each copy, so such
/// a base has no distinctness evidence and Theorem 4.4's split refuses it.
TEST_F(PlanAnalyzerTest, GeneratorIsDistinctOnlyWithoutRepeatedCuboids) {
  const std::vector<std::string> dims = {"prod", "state"};
  const PlanPtr once = CuboidBasePlan(TableRef("sales"), dims, {0b11, 0b01, 0b00});
  const PlanPtr twice = CuboidBasePlan(TableRef("sales"), dims, {0b01, 0b10, 0b01});
  EXPECT_TRUE(Analyze(once).root().rows_distinct);
  EXPECT_TRUE(CertifyBaseDistinct(once).ok());
  const NodeAnalysis repeated = Analyze(twice).root();
  EXPECT_FALSE(repeated.rows_distinct) << repeated.distinct_evidence;
  Result<DistinctnessCertificate> none = CertifyBaseDistinct(twice);
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().ToString().find("lists a cuboid twice"), std::string::npos)
      << none.status().ToString();

  // The text binds to that base, runs it with both copies, and the split
  // refuses it while it accepts the same two joins over the repeat-free base.
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(
      "select prod, state, count(*) as n from sales "
      "analyze by grouping_sets((prod), (state), (prod))",
      catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  PlanPtr base = bound->plan;
  while (base->kind() != PlanKind::kCuboidBase) base = base->child(0);
  EXPECT_EQ(base->cuboid_masks, (std::vector<CuboidMask>{0b01, 0b10, 0b01}));
  Result<Table> rows = ExecutePlan(base, catalog_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  Result<Table> prods =
      ExecutePlan(CuboidBasePlan(TableRef("sales"), dims, 0b01), catalog_);
  Result<Table> states =
      ExecutePlan(CuboidBasePlan(TableRef("sales"), dims, 0b10), catalog_);
  ASSERT_TRUE(prods.ok() && states.ok());
  EXPECT_EQ(rows->num_rows(), 2 * prods->num_rows() + states->num_rows());
  auto split = [&](const PlanPtr& b) {
    const ExprPtr theta = DimsTheta(dims);
    PlanPtr inner = MdJoinPlan(b, TableRef("sales"), {Count("n")}, theta);
    return SplitToEquiJoin(MdJoinPlan(inner, TableRef("sales"), {Count("m")}, theta),
                           catalog_);
  };
  EXPECT_TRUE(split(once).ok());
  Result<PlanPtr> refused = split(twice);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("lists a cuboid twice"), std::string::npos)
      << refused.status().ToString();
}

// ---------------------------------------------------------------------------
// Negative preconditions, one illegal plan per rule
// ---------------------------------------------------------------------------

TEST_F(PlanAnalyzerTest, TransferRejectsUnboundSelectionAttribute) {
  // Observation 4.1 negative: the base σ references cust, but θ binds it with
  // an inequality, not a plain-column equi conjunct — no substitution exists.
  PlanPtr base = FilterPlan(DistinctCustBase(), Gt(Col("cust"), Lit(1)));
  PlanPtr plan = MdJoinPlan(base, TableRef("sales"), {Count("n")},
                            Gt(RCol("cust"), BCol("cust")));
  Result<TransferCertificate> cert = CertifyEquiTransfer(plan);
  ASSERT_FALSE(cert.ok());
  EXPECT_NE(cert.status().ToString().find("'cust'"), std::string::npos)
      << cert.status().ToString();
  EXPECT_NE(cert.status().ToString().find("equi conjunct"), std::string::npos);
  EXPECT_FALSE(ApplyBaseSelectionTransfer(plan).ok());
}

TEST_F(PlanAnalyzerTest, FusionDetectsDependentThetas) {
  // Theorem 4.3 negative: the outer θ reads the inner MD-join's output "t",
  // so the components are serially dependent — different generations, no
  // fusion.
  PlanPtr inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                             {Sum(RCol("sale"), "t")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("sales"), {Count("n")},
                             And(CustTheta(), Gt(BCol("t"), RCol("sale"))));
  ChainDependencyCertificate cert = CertifyChainDependencies({inner, outer});
  ASSERT_EQ(cert.generation.size(), 2u);
  EXPECT_EQ(cert.generation[0], 0);
  EXPECT_EQ(cert.generation[1], 1);
  EXPECT_FALSE(FuseMdJoinSeries(outer).ok());

  // Control: independent components over the same detail fuse.
  PlanPtr indep = MdJoinPlan(inner, TableRef("sales"),
                             {Count(RCol("prod"), "m")}, CustTheta());
  ChainDependencyCertificate ok_cert = CertifyChainDependencies({inner, indep});
  EXPECT_EQ(ok_cert.generation[0], 0);
  EXPECT_EQ(ok_cert.generation[1], 0);
  Result<PlanPtr> fused = FuseMdJoinSeries(indep);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ((*fused)->kind(), PlanKind::kMdJoin);
  EXPECT_EQ((*fused)->components.size(), 2u);
}

TEST_F(PlanAnalyzerTest, CommuteRejectsDependentOuterTheta) {
  // Theorem 4.3 (commute) negative: the outer θ references the inner
  // aggregate output, so provenance resolves it to an aggregate, not a base
  // column.
  PlanPtr inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                             {Sum(RCol("sale"), "t")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("sales"), {Count("n")},
                             And(CustTheta(), Gt(BCol("t"), RCol("sale"))));
  Status s = CertifyOuterIndependence(outer, catalog_, "Theorem 4.3 (commute)");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("'t'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("not an attribute of the inner base"),
            std::string::npos);
  EXPECT_FALSE(CommuteMdJoins(outer, catalog_).ok());
}

TEST_F(PlanAnalyzerTest, SplitRequiresDistinctnessEvidence) {
  // Theorem 4.4 negative: same legal θ shape, but the base carries no
  // structural distinctness evidence, so the split (which would multiply
  // duplicate base rows through the equijoin) is refused with a precise
  // diagnostic instead of silently trusted.
  PlanPtr inner = MdJoinPlan(UndocumentedCustBase(), TableRef("sales"),
                             {Sum(RCol("sale"), "t")}, CustTheta());
  PlanPtr outer = MdJoinPlan(inner, TableRef("sales"), {Count("n")}, CustTheta());
  Result<PlanPtr> split = SplitToEquiJoin(outer, catalog_);
  ASSERT_FALSE(split.ok());
  EXPECT_NE(split.status().ToString().find("no distinctness evidence"),
            std::string::npos)
      << split.status().ToString();
  EXPECT_NE(split.status().ToString().find("Theorem 4.4"), std::string::npos);

  // The same plan with a Distinct base splits fine.
  PlanPtr good_inner = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                                  {Sum(RCol("sale"), "t")}, CustTheta());
  PlanPtr good_outer =
      MdJoinPlan(good_inner, TableRef("sales"), {Count("n")}, CustTheta());
  EXPECT_TRUE(SplitToEquiJoin(good_outer, catalog_).ok());
}

TEST_F(PlanAnalyzerTest, RollupRejectsNonDistributiveAggregate) {
  // Theorem 4.5 negative: avg is algebraic, not distributive; re-aggregating
  // finalized averages would be wrong, and the certificate says so.
  std::vector<std::string> dims = {"prod", "month"};
  PlanPtr plan = MdJoinPlan(CuboidBasePlan(TableRef("sales"), dims, 0b01),
                            TableRef("sales"), {Avg(RCol("sale"), "a")},
                            DimsTheta(dims));
  Result<RollupCertificate> cert = CertifyRollup(plan);
  ASSERT_FALSE(cert.ok());
  EXPECT_NE(cert.status().ToString().find("not distributive"), std::string::npos)
      << cert.status().ToString();
  EXPECT_FALSE(ApplyRollup(plan, 0b11).ok());
}

// ---------------------------------------------------------------------------
// Invariant checking and verify_plans mode
// ---------------------------------------------------------------------------

TEST_F(PlanAnalyzerTest, CheckPlanInvariants) {
  PlanPtr good = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            CustTheta());
  EXPECT_TRUE(CheckPlanInvariants(good, catalog_).empty());
  EXPECT_TRUE(VerifyPlan(good, catalog_, "test").ok());

  PlanPtr bad = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                           Eq(RCol("cust"), BCol("nope")));
  EXPECT_FALSE(CheckPlanInvariants(bad, catalog_).empty());
  Status s = VerifyPlan(bad, catalog_, "unit-test-context");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unit-test-context"), std::string::npos)
      << s.ToString();
}

TEST_F(PlanAnalyzerTest, ExecutorVerifyPlansFailsFast) {
  PlanPtr bad = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                           Eq(RCol("cust"), BCol("nope")));
  MdJoinOptions options;
  options.verify_plans = true;
  Result<Table> r = ExecutePlan(bad, catalog_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("ExecutePlan"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("[error]"), std::string::npos);
}

TEST_F(PlanAnalyzerTest, OptimizerVerifyPlansAcceptsLegalRewrites) {
  // A representative plan that fires Observation 4.1's transfer; with
  // verification on, every accepted rewrite is re-analyzed and the
  // optimization still succeeds.
  PlanPtr plan = MdJoinPlan(FilterPlan(DistinctCustBase(), Le(Col("cust"), Lit(3))),
                            TableRef("sales"), {Count("n")}, CustTheta());
  OptimizeOptions options;
  options.verify_plans = true;
  OptimizeReport report;
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_, options, &report);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_FALSE(report.applied.empty());
}

}  // namespace
}  // namespace mdjoin
