/// Plan-IR plumbing not covered by the rule tests: the Sort node, schema
/// inference corner cases, CloneWithChildren, cost estimates per node kind,
/// the EXPLAIN ANALYZE tree, and explain-label rendering.

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
  QueryProfile profile;
  Result<Table> profiled = ExplainAnalyze(plan, catalog_, {}, &profile);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  Result<Table> plain = ExecutePlan(plan, catalog_);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(TablesEqualOrdered(*profiled, *plain));
  // The profile tree mirrors the plan tree: each node's children are a
  // prefix of its plan node's, labelled alike (AnnotateEstimates and
  // HarvestFeedback walk both in lockstep). The detail TableRef is read in
  // place, never executed, so only the base subtree shows.
  ASSERT_NE(profile.root, nullptr);
  const OperatorProfile& root = *profile.root;
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
  EXPECT_TRUE(profile.complete);
  EXPECT_EQ(profile.terminal, "ok");
  // Rendering contains every operator.
  std::string text = profile.ToText();
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
  // One generator node: the full cube renders as its dims, any other
  // cuboid list as its cuboids; one MD-join node: two components render as
  // the generalized MD-join.
  EXPECT_EQ(CubeBasePlan(TableRef("t"), {"a", "b"})->Label(), "CubeBase(a, b)");
  EXPECT_EQ(CuboidBasePlan(TableRef("t"), {"a", "b"}, {0b11, 0b01, 0b00})->Label(),
            "CuboidBase(a, b; a, ALL; ALL, ALL)");
  EXPECT_EQ(CuboidBasePlan(TableRef("t"), {"a", "b"}, {0b11, 0b10, 0b01, 0b00})->Label(),
            "CuboidBase(a, b; ALL, b; a, ALL; ALL, ALL)");
  const std::vector<MdJoinComponent> two = {{{Count("n")}, Eq(RCol("k"), BCol("k"))},
                                            {{Count("m")}, Eq(RCol("k"), BCol("k"))}};
  const std::string theta = Eq(RCol("k"), BCol("k"))->ToString();
  EXPECT_EQ(GeneralizedMdJoinPlan(TableRef("b"), TableRef("r"), two)->Label(),
            "GeneralizedMdJoin(2 components; [count(*) as n | " + theta +
                "]; [count(*) as m | " + theta + "])");
  EXPECT_EQ(GeneralizedMdJoinPlan(TableRef("b"), TableRef("r"), {two[0]})->Label(),
            "MdJoin(aggs: count(*) as n; theta: " + theta + ")");
}

/// A generator lists k cuboids but reads its input once, so its estimated
/// work is one scan of the input whatever k is; its rows add up per cuboid.
TEST_F(PlanExtraTest, GeneratorCostCountsOneScanOfItsInput) {
  const PlanPtr input = FilterPlan(TableRef("sales"), Eq(Col("state"), Lit("NY")));
  Result<PlanCost> child = EstimateCost(input, catalog_);
  Result<PlanCost> one =
      EstimateCost(CuboidBasePlan(input, {"prod", "month"}, 0b01), catalog_);
  Result<PlanCost> rollup =
      EstimateCost(CuboidBasePlan(input, {"prod", "month"}, {0b11, 0b01, 0b00}), catalog_);
  Result<PlanCost> cube = EstimateCost(CubeBasePlan(input, {"prod", "month"}), catalog_);
  ASSERT_TRUE(child.ok() && one.ok() && rollup.ok() && cube.ok());
  const double scan = child->work + child->output_rows;
  EXPECT_DOUBLE_EQ(one->work, scan);
  EXPECT_DOUBLE_EQ(rollup->work, scan);
  EXPECT_DOUBLE_EQ(cube->work, scan);
  EXPECT_DOUBLE_EQ(rollup->output_rows, 3 * one->output_rows);
  EXPECT_DOUBLE_EQ(cube->output_rows, 4 * one->output_rows);
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
      CuboidBasePlan(TableRef("sales"), {"prod", "month"}, {0b10, 0b01, 0b10}),
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
