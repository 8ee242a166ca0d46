#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "core/mdjoin.h"
#include "ra/group_by.h"
#include "cube/base_tables.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr CustTheta() { return Eq(RCol("cust"), BCol("cust")); }

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  // Submitting after a Wait round works.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(3);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ParallelMdJoinTest, MatchesSequential) {
  Table sales = testutil::RandomSales(31, 400);
  Result<Table> base = GroupByBase(sales, {"cust", "month"});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Avg(RCol("sale"), "a")};
  Result<Table> sequential = MdJoin(*base, sales, aggs, theta);
  ASSERT_TRUE(sequential.ok());
  for (int partitions : {1, 2, 3, 8}) {
    for (int threads : {1, 2, 4}) {
      MdJoinStats stats;
      Result<Table> parallel =
          ParallelMdJoin(*base, sales, aggs, theta, partitions, threads, {}, &stats);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel))
          << "partitions=" << partitions << " threads=" << threads;
      // Theorem 4.1 price: every fragment scans all of R, within one pass.
      EXPECT_EQ(stats.detail_rows_scanned, partitions * sales.num_rows());
      EXPECT_EQ(stats.passes_over_detail, 1);
    }
  }
}

TEST(ParallelMdJoinTest, ThreadedMdJoinMatchesSequential) {
  // Three 1024-row morsels, so up to three workers get a share.
  Table sales = testutil::RandomSales(33, 2500);
  Result<Table> base = GroupByBase(sales, {"cust"});
  // Include a holistic aggregate: merging worker partials must still be
  // exact (this is what the merge callbacks buy over rollup re-aggregation).
  std::vector<AggSpec> aggs = {Count("n"), Avg(RCol("sale"), "a"),
                               CountDistinct(RCol("prod"), "dp")};
  Result<Table> sequential = MdJoin(*base, sales, aggs, CustTheta());
  ASSERT_TRUE(sequential.ok());
  for (int threads : {1, 2, 5}) {
    MdJoinOptions options;
    options.num_threads = threads;
    MdJoinStats stats;
    Result<Table> parallel = MdJoin(*base, sales, aggs, CustTheta(), options, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel)) << "threads=" << threads;
    // Workers split R's morsels: R is scanned exactly once in total.
    EXPECT_EQ(stats.detail_rows_scanned, sales.num_rows());
    EXPECT_EQ(stats.threads, std::min(threads, 3));
  }
}

TEST(ParallelMdJoinTest, ThreadedMdJoinHandlesResidualTheta) {
  Table sales = testutil::RandomSales(35, 300);
  Result<Table> base = GroupByBase(sales, {"cust"});
  Result<Table> with_avg = MdJoin(*base, sales, {Avg(RCol("sale"), "avg_sale")},
                                  CustTheta());
  ASSERT_TRUE(with_avg.ok());
  ExprPtr theta = And(CustTheta(), Gt(RCol("sale"), BCol("avg_sale")),
                      Eq(RCol("year"), Lit(1997)));
  std::vector<AggSpec> aggs = {Count("above")};
  Result<Table> sequential = MdJoin(*with_avg, sales, aggs, theta);
  MdJoinOptions options;
  options.num_threads = 2;
  Result<Table> parallel = MdJoin(*with_avg, sales, aggs, theta, options);
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel));
}

TEST(ParallelMdJoinTest, CubeBaseParallel) {
  Table sales = testutil::RandomSales(37, 250);
  Result<Table> base = CubeByBase(sales, {"prod", "month"});
  ExprPtr theta = And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")));
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  Result<Table> sequential = MdJoin(*base, sales, aggs, theta);
  Result<Table> parallel = ParallelMdJoin(*base, sales, aggs, theta, 4, 4);
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel));
}

TEST(ParallelMdJoinTest, InvalidArguments) {
  Table sales = testutil::SmallSales();
  Result<Table> base = GroupByBase(sales, {"cust"});
  EXPECT_FALSE(ParallelMdJoin(*base, sales, {Count("n")}, CustTheta(), 0, 1).ok());
  EXPECT_FALSE(ParallelMdJoin(*base, sales, {Count("n")}, CustTheta(), 1, 0).ok());
  MdJoinOptions options;
  options.num_threads = 2;
  EXPECT_FALSE(MdJoin(*base, sales, {Count("n")}, nullptr, options).ok());
}

}  // namespace
}  // namespace mdjoin
