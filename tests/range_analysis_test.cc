/// Interval abstract interpretation (analyze/range_analysis.h) and the
/// certified empty-result rewrite it licenses: derived facts must soundly
/// over-approximate θ's models, provably-empty θs must answer through the
/// EmptyRef rewrite bit-for-bit identically to the unoptimized plan with
/// zero detail rows scanned, and the satisfiability verdicts must respect
/// the evaluator's NULL / ALL / NaN corner semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analyze/plan_analyzer.h"
#include "analyze/plan_invariants.h"
#include "analyze/range_analysis.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/rules.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::S;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Per-conjunct transfer functions
// ---------------------------------------------------------------------------

TEST(RangeAnalysis, OrderedComparisonDerivesWindowAndClearsNullAll) {
  RangeAnalysis a = AnalyzeRanges(Lt(RCol("sale"), Lit(5.0)));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr) << a.ToString();
  // Ordered comparisons are false on NULL and ALL, so both classes vanish.
  EXPECT_FALSE(f->range.may_be_null);
  EXPECT_FALSE(f->range.may_be_all);
  // Strict compare excludes NaN (NaN orders equal, so `< 5` is false on it).
  EXPECT_FALSE(f->range.may_be_nan);
  EXPECT_EQ(f->range.num_hi, 5.0);
  EXPECT_TRUE(f->range.num_hi_open);
  EXPECT_TRUE(f->range.Admits(F(4.0)));
  EXPECT_FALSE(f->range.Admits(F(5.0)));
  EXPECT_FALSE(f->range.Admits(Value::Null()));
  EXPECT_FALSE(f->range.Admits(Value::All()));
}

TEST(RangeAnalysis, ConjunctionMeetsWindows) {
  RangeAnalysis a =
      AnalyzeRanges(And(Ge(RCol("sale"), Lit(10.0)), Le(RCol("sale"), Lit(20.0))));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->range.num_lo, 10.0);
  EXPECT_EQ(f->range.num_hi, 20.0);
  // Non-strict bounds: a NaN cell passes both `>= 10` and `<= 20`.
  EXPECT_TRUE(f->range.may_be_nan);
  EXPECT_TRUE(f->range.Admits(F(15.0)));
  EXPECT_FALSE(f->range.Admits(F(25.0)));
  EXPECT_TRUE(f->range.Admits(F(kNaN)));
}

TEST(RangeAnalysis, LiteralOnTheLeftMirrorsAndBoundsIntersect) {
  // 1994 <= year, year <= 1999, 1996 >= year (year <= 1996), year >= 1995:
  // the window is [1995, 1996]; an equi conjunct with B bounds nothing.
  RangeAnalysis a = AnalyzeRanges(
      And(Eq(RCol("year"), BCol("year")), Le(Lit(1994), RCol("year")),
          Le(RCol("year"), Lit(1999)), Ge(Lit(1996), RCol("year")),
          Ge(RCol("year"), Lit(1995))));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "year");
  ASSERT_NE(f, nullptr) << a.ToString();
  EXPECT_EQ(f->range.num_lo, 1995.0);
  EXPECT_EQ(f->range.num_hi, 1996.0);
  EXPECT_TRUE(f->range.Admits(I(1996)));
  EXPECT_FALSE(f->range.Admits(I(1994)));
  EXPECT_FALSE(f->range.Admits(I(1997)));
}

TEST(RangeAnalysis, EqualityKeepsAllWildcard) {
  // θ-equality treats ALL as a wildcard, so `x = 5 AND x = 10` is NOT
  // unsatisfiable: an ALL cell matches both.
  RangeAnalysis a =
      AnalyzeRanges(And(Eq(RCol("prod"), Lit(5)), Eq(RCol("prod"), Lit(10))));
  EXPECT_TRUE(a.satisfiable) << a.ToString();
  const RangeFact* f = a.FindFact(Side::kDetail, "prod");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.may_be_all);
  EXPECT_FALSE(f->range.may_be_null);
  EXPECT_TRUE(f->range.Admits(Value::All()));
  EXPECT_FALSE(f->range.Admits(I(7)));
}

TEST(RangeAnalysis, ContradictoryStrictWindowIsUnsat) {
  // The acceptance example: R.x < 5 AND R.x > 10. Strict bounds exclude NaN
  // and the windows are disjoint — no value of any class survives.
  RangeAnalysis a =
      AnalyzeRanges(And(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(10.0))));
  EXPECT_FALSE(a.satisfiable) << a.ToString();
  EXPECT_FALSE(a.unsat_reason.empty());
}

TEST(RangeAnalysis, NonStrictContradictionStaysSatisfiableViaNaN) {
  // `<= 5 AND >= 10` looks empty as an interval, but a NaN cell satisfies
  // both non-strict comparisons under Value::Compare's NaN-orders-equal
  // semantics. The analysis must NOT claim unsat.
  RangeAnalysis a =
      AnalyzeRanges(And(Le(RCol("sale"), Lit(5.0)), Ge(RCol("sale"), Lit(10.0))));
  EXPECT_TRUE(a.satisfiable) << a.ToString();
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.may_be_nan);
  EXPECT_TRUE(f->range.Admits(F(kNaN)));
  EXPECT_FALSE(f->range.Admits(F(7.0)));
}

TEST(RangeAnalysis, NaNLiteralEndpoints) {
  // Strict compare against a NaN literal is false for every value.
  EXPECT_FALSE(AnalyzeRanges(Lt(RCol("sale"), Lit(kNaN))).satisfiable);
  EXPECT_FALSE(AnalyzeRanges(Gt(RCol("sale"), Lit(kNaN))).satisfiable);
  // Non-strict compare against NaN is true for every numeric value (and only
  // numeric): the fact keeps an unbounded window but drops NULL/ALL/strings.
  RangeAnalysis a = AnalyzeRanges(Le(RCol("sale"), Lit(kNaN)));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->range.may_be_null);
  EXPECT_FALSE(f->range.may_be_all);
  EXPECT_FALSE(f->range.may_be_string);
  EXPECT_TRUE(f->range.Admits(F(1e300)));
  EXPECT_FALSE(f->range.Admits(S("NY")));
}

TEST(RangeAnalysis, InfinityEndpointsAreOrdinaryBounds) {
  RangeAnalysis a = AnalyzeRanges(Le(RCol("sale"), Lit(-kInf)));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.Admits(F(-kInf)));
  EXPECT_FALSE(f->range.Admits(F(0.0)));
}

TEST(RangeAnalysis, NullPredicates) {
  RangeAnalysis isnull = AnalyzeRanges(IsNull(RCol("state")));
  const RangeFact* f = isnull.FindFact(Side::kDetail, "state");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.Admits(Value::Null()));
  EXPECT_FALSE(f->range.Admits(S("NY")));

  RangeAnalysis notnull = AnalyzeRanges(Not(IsNull(RCol("state"))));
  f = notnull.FindFact(Side::kDetail, "state");
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->range.Admits(Value::Null()));
  EXPECT_TRUE(f->range.Admits(S("NY")));

  // NULL comparison literal never matches anything.
  EXPECT_FALSE(AnalyzeRanges(Eq(RCol("state"), Lit(Value::Null()))).satisfiable);
}

TEST(RangeAnalysis, StringWindowsAndInLists) {
  RangeAnalysis a = AnalyzeRanges(
      And(Ge(RCol("state"), Lit("CA")), Lt(RCol("state"), Lit("NY"))));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "state");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.Admits(S("CT")));
  EXPECT_FALSE(f->range.Admits(S("NY")));
  EXPECT_FALSE(f->range.Admits(F(1.0)));

  RangeAnalysis in = AnalyzeRanges(In(RCol("prod"), {I(2), I(4), I(9)}));
  f = in.FindFact(Side::kDetail, "prod");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->range.Admits(I(4)));
  EXPECT_FALSE(f->range.Admits(I(10)));
  // IN evaluates via MatchesEq: an ALL cell matches any candidate.
  EXPECT_TRUE(f->range.Admits(Value::All()));

  // IN with no non-null candidates matches nothing.
  EXPECT_FALSE(
      AnalyzeRanges(In(RCol("prod"), {Value::Null()})).satisfiable);
}

TEST(RangeAnalysis, DisjunctionJoinsArms) {
  RangeAnalysis a = AnalyzeRanges(
      Or(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(100.0))));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* f = a.FindFact(Side::kDetail, "sale");
  ASSERT_NE(f, nullptr) << a.ToString();
  // The hull of the two arms: anything in between is admitted too (interval
  // domains cannot express holes), but NULL/ALL stay excluded since both
  // arms exclude them.
  EXPECT_TRUE(f->range.Admits(F(2.0)));
  EXPECT_TRUE(f->range.Admits(F(200.0)));
  EXPECT_FALSE(f->range.Admits(Value::Null()));
  EXPECT_FALSE(f->range.Admits(Value::All()));

  // An arm constraining a different column yields no common fact.
  RangeAnalysis mixed = AnalyzeRanges(
      Or(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("prod"), Lit(3))));
  EXPECT_EQ(mixed.FindFact(Side::kDetail, "sale"), nullptr);
}

TEST(RangeAnalysis, TransferThroughEquiConjunct) {
  // B.cust = R.cust AND B.cust < 5: Observation 4.1 carries the base-side
  // window to the detail side.
  RangeAnalysis a = AnalyzeRanges(
      And(Eq(BCol("cust"), RCol("cust")), Lt(BCol("cust"), Lit(5))));
  ASSERT_TRUE(a.satisfiable);
  const RangeFact* base_fact = a.FindFact(Side::kBase, "cust");
  ASSERT_NE(base_fact, nullptr);
  EXPECT_FALSE(base_fact->from_transfer);
  const RangeFact* detail_fact = a.FindFact(Side::kDetail, "cust");
  ASSERT_NE(detail_fact, nullptr) << a.ToString();
  EXPECT_TRUE(detail_fact->from_transfer);
  EXPECT_EQ(detail_fact->range.num_hi, 5.0);
  // Transferred facts must readmit ALL: a detail ALL cell equi-matches any
  // base value.
  EXPECT_TRUE(detail_fact->range.Admits(Value::All()));
  EXPECT_FALSE(detail_fact->range.Admits(Value::Null()));
}

TEST(RangeAnalysis, ConstantFalseConjunctIsUnsat) {
  EXPECT_FALSE(AnalyzeRanges(And(Eq(Lit(1), Lit(2)), Lt(RCol("sale"), Lit(5.0))))
                   .satisfiable);
  EXPECT_TRUE(AnalyzeRanges(Eq(Lit(1), Lit(1))).satisfiable);
  // Null θ is trivially true.
  EXPECT_TRUE(AnalyzeRanges(nullptr).satisfiable);
}

// ---------------------------------------------------------------------------
// Zone-map export (ROADMAP item 1)
// ---------------------------------------------------------------------------

TEST(ZoneMap, CouldMatchPrunesDisjointBlocks) {
  RangeAnalysis a = AnalyzeRanges(
      And(Gt(RCol("sale"), Lit(100.0)), Lt(RCol("sale"), Lit(200.0))));
  ASSERT_TRUE(a.satisfiable);
  ASSERT_FALSE(a.zone_predicates.empty()) << a.ToString();
  const ZoneMapPredicate* z = nullptr;
  for (const ZoneMapPredicate& p : a.zone_predicates) {
    if (p.column == "sale") z = &p;
  }
  ASSERT_NE(z, nullptr);
  EXPECT_FALSE(z->allow_null);
  EXPECT_FALSE(z->allow_nan);
  // Block entirely below the window: prunable.
  EXPECT_FALSE(z->CouldMatch(0.0, 50.0, /*block_has_null=*/true));
  // Overlapping block: must be kept.
  EXPECT_TRUE(z->CouldMatch(150.0, 500.0, false));
  // Boundary-touching block against the strict bound: prunable.
  EXPECT_FALSE(z->CouldMatch(200.0, 300.0, false));
}

TEST(ZoneMap, NonStrictPredicateKeepsNaNBlocks) {
  RangeAnalysis a = AnalyzeRanges(Ge(RCol("sale"), Lit(100.0)));
  ASSERT_FALSE(a.zone_predicates.empty());
  const ZoneMapPredicate& z = a.zone_predicates.front();
  // may_be_nan survives `>=`, and min/max stats cannot witness NaN absence,
  // so no block is prunable on the numeric window alone... unless the reader
  // separately proves the block NaN-free. CouldMatch must stay conservative.
  EXPECT_TRUE(z.allow_nan);
  EXPECT_TRUE(z.CouldMatch(0.0, 50.0, false));
}

// ---------------------------------------------------------------------------
// Certified empty-result rewrite, end to end
// ---------------------------------------------------------------------------

class UnsatRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  PlanPtr DistinctCustBase() {
    return DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(UnsatRewriteTest, CertificateIssuedOnlyWhenRefuted) {
  ExprPtr unsat = And(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(10.0)));
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, unsat);
  Result<UnsatThetaCertificate> cert = CertifyUnsatTheta(plan);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_FALSE(cert->reason.empty());
  EXPECT_FALSE(cert->analysis.satisfiable);

  // Satisfiable θ: certificate refused.
  PlanPtr sat = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                           Lt(RCol("sale"), Lit(5.0)));
  EXPECT_FALSE(CertifyUnsatTheta(sat).ok());
  // Non-MD-join root: refused.
  EXPECT_FALSE(CertifyUnsatTheta(TableRef("sales")).ok());
}

TEST_F(UnsatRewriteTest, RewriteIsBitIdenticalWithZeroDetailRowsScanned) {
  ExprPtr unsat = And(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(10.0)));
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"),
                            {Count("n"), Sum(RCol("sale"), "total"),
                             Min(RCol("sale"), "lo")},
                            unsat);

  // Unoptimized reference: every base row, empty-multiset aggregates.
  Result<Table> reference = ExecutePlan(plan, catalog_, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Result<PlanPtr> rewritten = ApplyUnsatThetaRewrite(plan, catalog_);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  ASSERT_EQ((*rewritten)->child(1)->kind(), PlanKind::kEmptyRef);

  QueryProfile profile;
  Result<Table> optimized = ExplainAnalyze(*rewritten, catalog_, {}, &profile);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

  // Bit-identical: same rows, same order (MD-join preserves base order).
  EXPECT_TRUE(TablesEqualOrdered(*reference, *optimized))
      << "reference:\n" << reference->ToString() << "optimized:\n"
      << optimized->ToString();

  // The MD-join operator scanned zero detail rows.
  ASSERT_NE(profile.root, nullptr);
  EXPECT_TRUE(profile.root->is_mdjoin);
  EXPECT_EQ(profile.root->detail_rows_scanned, 0);

  // Idempotence: the rule refuses to fire again on its own output.
  EXPECT_FALSE(ApplyUnsatThetaRewrite(*rewritten, catalog_).ok());
}

TEST_F(UnsatRewriteTest, OptimizerAppliesRewriteAndReportsIt) {
  ExprPtr unsat = And(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(10.0)));
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            unsat);
  OptimizeReport report;
  std::vector<RewriteRecord> log;
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog_, {}, &report, &log);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // Later rounds may push θ's R-only conjuncts into a σ above the EmptyRef;
  // either way the detail subtree must bottom out in the empty relation.
  PlanPtr detail = (*optimized)->child(1);
  while (detail->kind() == PlanKind::kFilter) detail = detail->child(0);
  EXPECT_EQ(detail->kind(), PlanKind::kEmptyRef) << ExplainPlan(*optimized);
  bool recorded = false;
  for (const RewriteRecord& r : log) {
    if (r.rule.find("unsat") != std::string::npos && r.accepted) recorded = true;
  }
  EXPECT_TRUE(recorded);

  Result<Table> ref = ExecutePlan(plan, catalog_, {});
  Result<Table> opt = ExecutePlan(*optimized, catalog_, {});
  ASSERT_TRUE(ref.ok() && opt.ok());
  EXPECT_TRUE(TablesEqualOrdered(*ref, *opt));

  // Disabled via options: plan untouched.
  OptimizeOptions off;
  off.enable_unsat_rewrite = false;
  Result<PlanPtr> untouched = OptimizePlan(plan, catalog_, off);
  ASSERT_TRUE(untouched.ok());
  EXPECT_NE((*untouched)->child(1)->kind(), PlanKind::kEmptyRef);
}

TEST_F(UnsatRewriteTest, SatisfiableThetaIsLeftAlone) {
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            And(Eq(BCol("cust"), RCol("cust")),
                                Le(RCol("sale"), Lit(5.0)),
                                Ge(RCol("sale"), Lit(10.0))));
  // <= / >= contradiction is NaN-satisfiable; the rewrite must NOT fire.
  EXPECT_FALSE(ApplyUnsatThetaRewrite(plan, catalog_).ok());
}

TEST_F(UnsatRewriteTest, StaticAnalysisSectionRendersInProfiles) {
  ExprPtr unsat = And(Lt(RCol("sale"), Lit(5.0)), Gt(RCol("sale"), Lit(10.0)));
  PlanPtr plan = MdJoinPlan(DistinctCustBase(), TableRef("sales"), {Count("n")},
                            unsat);
  std::vector<std::string> report = StaticAnalysisReport(plan, catalog_);
  ASSERT_FALSE(report.empty());
  bool has_verifier_line = false, has_unsat_line = false;
  for (const std::string& line : report) {
    if (line.find("bytecode") != std::string::npos) has_verifier_line = true;
    if (line.find("UNSATISFIABLE") != std::string::npos) has_unsat_line = true;
  }
  EXPECT_TRUE(has_verifier_line) << testing::PrintToString(report);
  EXPECT_TRUE(has_unsat_line) << testing::PrintToString(report);

  QueryProfile profile;
  Result<Table> result = ExplainAnalyze(plan, catalog_, {}, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(profile.analysis.empty());
  EXPECT_NE(profile.ToText().find("static analysis:"), std::string::npos);
  EXPECT_NE(profile.ToJson().find("\"analysis\""), std::string::npos);
}

TEST_F(UnsatRewriteTest, PushdownAndTransferCertificatesCarryRanges) {
  ExprPtr theta = And(Eq(BCol("cust"), RCol("cust")), Lt(RCol("sale"), Lit(100.0)));
  PlanPtr plan =
      MdJoinPlan(FilterPlan(DistinctCustBase(), Lt(BCol("cust"), Lit(3))),
                 TableRef("sales"), {Count("n")}, theta);
  Result<PushdownCertificate> push = CertifyDetailPushdown(plan);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  bool sale_range = false;
  for (const RangeFact& f : push->pushed_ranges) {
    if (f.column == "sale" && f.side == Side::kDetail) sale_range = true;
  }
  EXPECT_TRUE(sale_range);

  Result<TransferCertificate> transfer = CertifyEquiTransfer(plan);
  ASSERT_TRUE(transfer.ok()) << transfer.status().ToString();
  bool cust_transferred = false;
  for (const RangeFact& f : transfer->transferred_ranges) {
    if (f.column == "cust" && f.side == Side::kDetail && f.from_transfer) {
      cust_transferred = true;
    }
  }
  EXPECT_TRUE(cust_transferred);
}

}  // namespace
}  // namespace mdjoin
