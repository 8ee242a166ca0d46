/// Plan-IR plumbing not covered by the rule tests: the Sort node, schema
/// inference corner cases, CloneWithChildren, executor CSE behavior, cost
/// estimates per node kind, and explain-label rendering.

#include <gtest/gtest.h>

#include "expr/conjuncts.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class PlanExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sales_ = testutil::SmallSales();
    ASSERT_TRUE(catalog_.Register("sales", &sales_).ok());
  }

  Table sales_;
  Catalog catalog_;
};

TEST_F(PlanExtraTest, SortNodeOrdersRows) {
  PlanPtr plan = SortPlan(TableRef("sales"), {"sale"}, {false});
  Result<Table> out = ExecutePlan(plan, catalog_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (int64_t r = 1; r < out->num_rows(); ++r) {
    EXPECT_GE(out->Get(r - 1, 6).AsDouble(), out->Get(r, 6).AsDouble());
  }
}

TEST_F(PlanExtraTest, SortNodeMultiKeyAndSchema) {
  PlanPtr plan = SortPlan(TableRef("sales"), {"cust", "month"});
  Result<Schema> schema = InferSchema(plan, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Equals(sales_.schema()));
  // Unknown sort column is caught by inference.
  PlanPtr bad = SortPlan(TableRef("sales"), {"bogus"});
  EXPECT_FALSE(InferSchema(bad, catalog_).ok());
  EXPECT_NE(plan->Label().find("cust"), std::string::npos);
}

TEST_F(PlanExtraTest, CloneWithChildrenPreservesPayload) {
  PlanPtr md = MdJoinPlan(TableRef("sales"), TableRef("sales"),
                          {Count("n")}, Eq(RCol("cust"), BCol("cust")));
  PlanPtr cloned = CloneWithChildren(md, {TableRef("sales"), TableRef("sales")});
  EXPECT_EQ(ExplainPlan(md), ExplainPlan(cloned));
  PlanPtr sort = SortPlan(TableRef("sales"), {"cust"}, {false});
  PlanPtr sort_clone = CloneWithChildren(sort, {TableRef("sales")});
  EXPECT_EQ(sort->Label(), sort_clone->Label());
}

TEST_F(PlanExtraTest, CseReusesIdenticalSubtrees) {
  // The same expensive subquery (distinct customers) used on both sides of
  // a join: CSE must evaluate it once.
  PlanPtr dist = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr join = HashJoinPlan(dist, dist, {"cust"}, {"cust"});
  ExecStats plain_stats, cse_stats;
  Result<Table> plain = ExecutePlan(join, catalog_, {}, &plain_stats);
  Result<Table> cse = ExecutePlanCse(join, catalog_, {}, &cse_stats);
  ASSERT_TRUE(plain.ok() && cse.ok());
  EXPECT_TRUE(TablesEqualUnordered(*plain, *cse));
  EXPECT_EQ(plain_stats.cse_hits, 0);
  EXPECT_EQ(cse_stats.cse_hits, 1);
  EXPECT_LT(cse_stats.nodes_executed, plain_stats.nodes_executed);
}

TEST_F(PlanExtraTest, CseDistinguishesDifferentPayloads) {
  PlanPtr f1 = FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NY")));
  PlanPtr f2 = FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NJ")));
  PlanPtr join = HashJoinPlan(f1, f2, {"cust"}, {"cust"});
  ExecStats stats;
  Result<Table> out = ExecutePlanCse(join, catalog_, {}, &stats);
  ASSERT_TRUE(out.ok());
  // Only the shared TableRef(sales) leaf is reused.
  EXPECT_EQ(stats.cse_hits, 1);
}

TEST_F(PlanExtraTest, CostCoversEveryNodeKind) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  std::vector<PlanPtr> plans = {
      TableRef("sales"),
      FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NY"))),
      ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}),
      DistinctPlan(TableRef("sales")),
      UnionPlan({TableRef("sales"), TableRef("sales")}),
      PartitionPlan(TableRef("sales"), 0, 4),
      HashJoinPlan(base, base, {"cust"}, {"cust"}),
      GroupByPlan(TableRef("sales"), {"cust"}, {Count("n")}),
      MdJoinPlan(base, TableRef("sales"), {Count("n")}, Eq(RCol("cust"), BCol("cust"))),
      GeneralizedMdJoinPlan(base, TableRef("sales"),
                            {{{Count("n")}, Eq(RCol("cust"), BCol("cust"))}}),
      CubeBasePlan(TableRef("sales"), {"prod", "month"}),
      CuboidBasePlan(TableRef("sales"), {"prod", "month"}, 0b01),
      SortPlan(TableRef("sales"), {"cust"}),
  };
  for (const PlanPtr& plan : plans) {
    Result<PlanCost> cost = EstimateCost(plan, catalog_);
    ASSERT_TRUE(cost.ok()) << plan->Label() << ": " << cost.status().ToString();
    EXPECT_GE(cost->output_rows, 0) << plan->Label();
    EXPECT_GE(cost->work, 0) << plan->Label();
  }
}

TEST_F(PlanExtraTest, ProfiledExecutionMatchesPlainAndRecordsTree) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));
  Result<ProfiledResult> profiled = ExecutePlanProfiled(plan, catalog_);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  Result<Table> plain = ExecutePlan(plan, catalog_);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(TablesEqualOrdered(profiled->table, *plain));
  // The profile tree mirrors the plan tree: each node's children are a
  // prefix of its plan node's, labelled alike (AnnotateEstimates and
  // HarvestFeedback walk both in lockstep). The detail TableRef is read in
  // place, never executed, so only the base subtree shows.
  ASSERT_NE(profiled->profile.root, nullptr);
  const OperatorProfile& root = *profiled->profile.root;
  EXPECT_NE(root.label.find("MdJoin"), std::string::npos);
  EXPECT_EQ(root.output_rows, plain->num_rows());
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0]->label, plan->child(0)->Label());
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  EXPECT_EQ(root.children[0]->children[0]->label, plan->child(0)->child(0)->Label());
  EXPECT_EQ(root.read, "in_place");
  EXPECT_GE(root.elapsed_ms, 0);
  EXPECT_GE(root.self_ms, 0);
  double child_ms = root.children[0]->elapsed_ms;
  EXPECT_NEAR(root.self_ms, root.elapsed_ms - child_ms, 1e-9);
  // The MD-join node carries its scan counters.
  EXPECT_TRUE(root.is_mdjoin);
  EXPECT_GT(root.detail_rows_scanned, 0);
  EXPECT_GT(root.matched_pairs, 0);
  EXPECT_TRUE(profiled->profile.complete);
  EXPECT_EQ(profiled->profile.terminal, "ok");
  // Rendering contains every operator.
  std::string text = profiled->ToString();
  EXPECT_NE(text.find("MdJoin"), std::string::npos);
  EXPECT_NE(text.find("Distinct"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("terminal: ok"), std::string::npos);
}

TEST_F(PlanExtraTest, ExplainLabelsCarryPayload) {
  EXPECT_EQ(TableRef("t")->Label(), "TableRef(t)");
  EXPECT_EQ(PartitionPlan(TableRef("t"), 2, 5)->Label(), "Partition(2/5)");
  EXPECT_NE(HashJoinPlan(TableRef("a"), TableRef("b"), {"k"}, {"k"},
                         JoinType::kLeftOuter)
                ->Label()
                .find("left outer"),
            std::string::npos);
  EXPECT_NE(CuboidBasePlan(TableRef("t"), {"a", "b"}, 0b01)->Label().find("ALL"),
            std::string::npos);
  EXPECT_NE(GroupByPlan(TableRef("t"), {"k"}, {Count("n")})->Label().find("count"),
            std::string::npos);
}

TEST_F(PlanExtraTest, InferSchemaUnionMismatch) {
  PlanPtr a = ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}});
  PlanPtr b = ProjectPlan(TableRef("sales"), {{Col("state"), "state"}});
  EXPECT_TRUE(InferSchema(UnionPlan({a, b}), catalog_).status().IsTypeError());
  EXPECT_FALSE(InferSchema(UnionPlan({}), catalog_).ok());
}

TEST_F(PlanExtraTest, InferSchemaHashJoinSuffixing) {
  // Right side's non-key duplicate column gets "_r".
  PlanPtr join = HashJoinPlan(TableRef("sales"), TableRef("sales"), {"cust"}, {"cust"});
  Result<Schema> schema = InferSchema(join, catalog_);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->FindField("sale").has_value());
  EXPECT_TRUE(schema->FindField("sale_r").has_value());
  // Executor agrees with inference.
  Result<Table> out = ExecutePlan(join, catalog_);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().Equals(*schema));
}

TEST_F(PlanExtraTest, InferredSchemasMatchExecutionEverywhere) {
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("sales"), {{Col("cust"), "cust"}}));
  std::vector<PlanPtr> plans = {
      FilterPlan(TableRef("sales"), Gt(Col("sale"), Lit(100))),
      MdJoinPlan(base, TableRef("sales"), {Count("n"), Avg(RCol("sale"), "a")},
                 Eq(RCol("cust"), BCol("cust"))),
      GeneralizedMdJoinPlan(
          base, TableRef("sales"),
          {{{Count("n1")}, Eq(RCol("cust"), BCol("cust"))},
           {{Sum(RCol("sale"), "s2")},
            And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")))}}),
      CubeBasePlan(TableRef("sales"), {"prod", "month"}),
      CuboidBasePlan(TableRef("sales"), {"prod", "month"}, 0b10),
      GroupByPlan(TableRef("sales"), {"state"}, {Min(Col("sale"), "lo")}),
      SortPlan(TableRef("sales"), {"sale"}, {false}),
      PartitionPlan(TableRef("sales"), 1, 3),
  };
  for (const PlanPtr& plan : plans) {
    Result<Schema> inferred = InferSchema(plan, catalog_);
    Result<Table> executed = ExecutePlan(plan, catalog_);
    ASSERT_TRUE(inferred.ok() && executed.ok()) << plan->Label();
    EXPECT_TRUE(executed->schema().Equals(*inferred)) << plan->Label()
        << "\ninferred: " << inferred->ToString()
        << "\nexecuted: " << executed->schema().ToString();
  }
}

}  // namespace
}  // namespace mdjoin
