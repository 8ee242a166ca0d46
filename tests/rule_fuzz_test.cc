/// Randomized plan-level rule sweep: build random MD-join plans, apply every
/// rule that fires, and check result equivalence by execution. Complements
/// the targeted rule tests with breadth across random θ shapes, aggregate
/// mixes and base generators.

#include <gtest/gtest.h>

#include "analyze/plan_invariants.h"
#include "common/random.h"
#include "expr/conjuncts.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/rules.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

/// Random θ over (cust, month) base keys, mixing every conjunct class.
ExprPtr RandomTheta(Random* rng) {
  std::vector<ExprPtr> cs;
  cs.push_back(Eq(RCol("cust"), BCol("cust")));
  if (rng->Bernoulli(0.5)) cs.push_back(Eq(RCol("month"), BCol("month")));
  if (rng->Bernoulli(0.5)) {
    const char* states[] = {"NY", "NJ", "CT", "CA"};
    cs.push_back(Eq(RCol("state"), Lit(states[rng->Uniform(4)])));
  }
  if (rng->Bernoulli(0.4)) {
    cs.push_back(Gt(RCol("sale"), Lit(static_cast<double>(rng->UniformInt(50, 400)))));
  }
  if (rng->Bernoulli(0.3)) cs.push_back(Le(BCol("cust"), Lit(rng->UniformInt(2, 5))));
  if (rng->Bernoulli(0.25)) {
    cs.push_back(Gt(RCol("sale"), Mul(BCol("cust"), Lit(40))));
  }
  return CombineConjuncts(std::move(cs));
}

std::vector<AggSpec> RandomAggs(Random* rng, const std::string& suffix) {
  std::vector<AggSpec> aggs;
  aggs.push_back(Count("n" + suffix));
  if (rng->Bernoulli(0.7)) aggs.push_back(Sum(RCol("sale"), "s" + suffix));
  if (rng->Bernoulli(0.4)) aggs.push_back(Min(RCol("sale"), "lo" + suffix));
  if (rng->Bernoulli(0.4)) aggs.push_back(Avg(RCol("sale"), "a" + suffix));
  return aggs;
}

class RuleFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Random>(GetParam());
    sales_ = testutil::RandomSales(GetParam() + 7000, 160);
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  PlanPtr Base() {
    return DistinctPlan(ProjectPlan(
        TableRef("sales"), {{Col("cust"), "cust"}, {Col("month"), "month"}}));
  }

  /// The analyzer hook of the fuzz sweep: a rewrite the certificates accepted
  /// must (a) still satisfy every static plan invariant and (b) produce the
  /// same table as the original. Execution runs with verify_plans on, so the
  /// analyzer also re-checks the plans the executor actually receives.
  void ExpectEquivalent(const PlanPtr& a, const PlanPtr& b, const char* what) {
    Status verified = VerifyPlan(b, catalog_, what);
    ASSERT_TRUE(verified.ok())
        << "analyzer-accepted rewrite failed static verification: "
        << verified.ToString() << "\nrewritten:\n" << ExplainPlan(b);
    MdJoinOptions options;
    options.verify_plans = true;
    Result<Table> ra = ExecutePlan(a, catalog_, options);
    Result<Table> rb = ExecutePlan(b, catalog_, options);
    ASSERT_TRUE(ra.ok()) << what << ": " << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << what << ": " << rb.status().ToString();
    EXPECT_TRUE(TablesEqualUnordered(*ra, *rb))
        << what << "\noriginal:\n" << ExplainPlan(a) << "rewritten:\n"
        << ExplainPlan(b);
  }

  std::unique_ptr<Random> rng_;
  Table sales_;
  Catalog catalog_;
};

TEST_P(RuleFuzz, EveryFiringRulePreservesResults) {
  for (int round = 0; round < 6; ++round) {
    // Random chain of 1–3 MD-joins over the same detail relation.
    PlanPtr plan = Base();
    int depth = static_cast<int>(rng_->UniformInt(1, 3));
    for (int i = 0; i < depth; ++i) {
      plan = MdJoinPlan(plan, TableRef("sales"),
                        RandomAggs(rng_.get(), "_" + std::to_string(round) + "_" +
                                                   std::to_string(i)),
                        RandomTheta(rng_.get()));
    }
    // Theorem 4.2, MD(B, R, l, θ1 ∧ θ2) = MD(B, σ_θ2(R), l, θ1) with θ2 the
    // R-only conjuncts of the root's θ, executed on both sides.
    {
      const MdJoinComponent& root = plan->components[0];
      ThetaParts parts = AnalyzeTheta(root.theta);
      if (!parts.detail_only.empty()) {
        PlanPtr selected = FilterPlan(plan->child(1), CombineConjuncts(parts.detail_only));
        parts.detail_only.clear();
        ExpectEquivalent(plan,
                         MdJoinPlan(plan->child(0), std::move(selected), root.aggs,
                                    CombineTheta(parts)),
                         "Theorem 4.2");
      }
    }
    // Rules that take only the plan.
    if (Result<PlanPtr> r = FuseMdJoinSeries(plan); r.ok()) {
      ExpectEquivalent(plan, *r, "Theorem 4.3 fusion");
    }
    for (int m : {2, 5}) {
      if (Result<PlanPtr> r = ApplyBasePartitioning(plan, m); r.ok()) {
        ExpectEquivalent(plan, *r, "Theorem 4.1");
      }
    }
    // Catalog-aware rules.
    if (Result<PlanPtr> r = CommuteMdJoins(plan, catalog_); r.ok()) {
      // Column order changes; compare on the sorted projection of shared
      // columns — simplest is to compare against re-commuting back.
      Result<PlanPtr> back = CommuteMdJoins(*r, catalog_);
      ASSERT_TRUE(back.ok());
      ExpectEquivalent(plan, *back, "Theorem 4.3 commute round-trip");
    }
    if (Result<PlanPtr> r = SplitToEquiJoin(plan, catalog_); r.ok()) {
      ExpectEquivalent(plan, *r, "Theorem 4.4");
    }
    // The driver composes them; must also be safe, with the analyzer
    // re-checking the plan after every accepted rewrite.
    OptimizeOptions opt_options;
    opt_options.verify_plans = true;
    Result<PlanPtr> optimized = OptimizePlan(plan, catalog_, opt_options);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    ExpectEquivalent(plan, *optimized, "OptimizePlan");
  }
}

TEST_P(RuleFuzz, FilteredBaseTransferFuzz) {
  for (int round = 0; round < 4; ++round) {
    PlanPtr filtered = FilterPlan(Base(), Le(Col("cust"), Lit(rng_->UniformInt(1, 5))));
    PlanPtr plan = MdJoinPlan(filtered, TableRef("sales"),
                              RandomAggs(rng_.get(), "_" + std::to_string(round)),
                              RandomTheta(rng_.get()));
    if (Result<PlanPtr> r = ApplyBaseSelectionTransfer(plan); r.ok()) {
      ExpectEquivalent(plan, *r, "Observation 4.1");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzz, ::testing::Values(11, 22, 33, 44),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mdjoin
