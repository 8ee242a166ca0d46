/// Tests for incremental MD-join maintenance under appends (incremental.h).

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "cube/base_tables.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

TEST(IncrementalTest, DeltaEqualsRecomputation) {
  Table all = testutil::RandomSales(51, 500);
  // Split into an initial load and three appended batches.
  std::vector<Table> batches = PartitionIntoN(all, 4);
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Min(RCol("sale"), "lo"), Max(RCol("sale"), "hi")};
  // The base is fixed up front (all cust/month pairs of the full data) —
  // base values are decoupled from the data, so this is natural here.
  Result<Table> base = GroupByBase(all, {"cust", "month"});
  Result<Table> materialized = MdJoin(*base, batches[0], aggs, theta);
  ASSERT_TRUE(materialized.ok());
  Table current = std::move(*materialized);
  Table loaded = batches[0].Clone();
  for (size_t i = 1; i < batches.size(); ++i) {
    MdJoinStats stats;
    Result<Table> updated =
        MdJoinApplyDelta(current, batches[i], aggs, theta, {}, &stats);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    // Only the delta was scanned.
    EXPECT_EQ(stats.detail_rows_scanned, batches[i].num_rows());
    current = std::move(*updated);
    Result<Table> both = Concat(loaded, batches[i]);
    loaded = std::move(*both);
    Result<Table> recomputed = MdJoin(*base, loaded, aggs, theta);
    ASSERT_TRUE(recomputed.ok());
    EXPECT_TRUE(TablesEqualOrdered(current, *recomputed)) << "batch " << i;
  }
}

TEST(IncrementalTest, CubeMaintenance) {
  // Maintaining a full data cube under appends — the materialized-view case.
  Table all = testutil::RandomSales(53, 300);
  std::vector<Table> halves = PartitionIntoN(all, 2);
  std::vector<std::string> dims = {"prod", "month"};
  ExprPtr theta = And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")));
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total"), Count("n")};
  Result<Table> base = CubeByBase(all, dims);
  Result<Table> cube0 = MdJoin(*base, halves[0], aggs, theta);
  Result<Table> cube1 = MdJoinApplyDelta(*cube0, halves[1], aggs, theta);
  Result<Table> full = MdJoin(*base, all, aggs, theta);
  ASSERT_TRUE(cube1.ok() && full.ok());
  EXPECT_TRUE(TablesEqualOrdered(*cube1, *full));
}

TEST(IncrementalTest, EmptyDeltaIsIdentity) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  Result<Table> current = MdJoin(*base, sales, aggs, theta);
  Table empty{testutil::SalesSchema()};
  Result<Table> updated = MdJoinApplyDelta(*current, empty, aggs, theta);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(TablesEqualOrdered(*current, *updated));
}

TEST(IncrementalTest, Preconditions) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  Result<Table> current = MdJoin(*base, sales, {Avg(RCol("sale"), "a")}, theta);
  // avg is algebraic, not distributive: refuse.
  EXPECT_FALSE(MdJoinApplyDelta(*current, sales, {Avg(RCol("sale"), "a")}, theta).ok());
  // Mismatched aggregate names against the previous schema.
  Result<Table> counted = MdJoin(*base, sales, {Count("n")}, theta);
  EXPECT_FALSE(MdJoinApplyDelta(*counted, sales, {Count("m")}, theta).ok());
}

}  // namespace
}  // namespace mdjoin
