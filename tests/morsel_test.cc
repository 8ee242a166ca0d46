/// Morsel-driven parallel MD-join coverage: scheduler unit behavior
/// (complete, disjoint coverage of the unit space under concurrent pulls),
/// bit-identical results across thread counts and θ shapes for the base
/// split (ParallelMdJoin) and the detail split (MdJoin with num_threads),
/// executor routing via MdJoinOptions::num_threads, failpoint-driven
/// cancellation landing mid-morsel, and the guard short-circuit inside the
/// partial-state merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/morsel_scheduler.h"
#include "common/query_guard.h"
#include "core/detail_scan.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "ra/group_by.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class MorselTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_F(MorselTest, SchedulerCoversUnitSpaceExactlyOnce) {
  MorselScheduler sched(/*num_jobs=*/3, /*morsels_per_job=*/3);
  EXPECT_EQ(sched.total_morsels(), 9);
  std::set<std::pair<int64_t, int64_t>> seen;  // (job, morsel)
  MorselScheduler::Morsel m;
  int64_t last = -1;
  while (sched.Next(&m)) {
    EXPECT_GE(m.job, 0);
    EXPECT_LT(m.job, 3);
    EXPECT_GE(m.morsel, 0);
    EXPECT_LT(m.morsel, 3);
    // Job-major order: one worker walks each job's morsels in sequence.
    EXPECT_EQ(m.job * 3 + m.morsel, last + 1);
    last = m.job * 3 + m.morsel;
    EXPECT_TRUE(seen.emplace(m.job, m.morsel).second) << "unit dispatched twice";
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(sched.dispatched(), 9);
  // One drained poll: the while-loop's terminating Next().
  EXPECT_EQ(sched.steal_waits(), 1);
}

TEST_F(MorselTest, SchedulerDegenerateInputs) {
  MorselScheduler::Morsel m;
  MorselScheduler no_morsels(/*num_jobs=*/4, /*morsels_per_job=*/0);
  EXPECT_EQ(no_morsels.total_morsels(), 0);
  EXPECT_FALSE(no_morsels.Next(&m));
  EXPECT_EQ(no_morsels.dispatched(), 0);

  MorselScheduler no_jobs(/*num_jobs=*/0, /*morsels_per_job=*/5);
  EXPECT_EQ(no_jobs.total_morsels(), 0);
  EXPECT_FALSE(no_jobs.Next(&m));

  MorselScheduler one(/*num_jobs=*/1, /*morsels_per_job=*/1);
  ASSERT_TRUE(one.Next(&m));
  EXPECT_EQ(m.job, 0);
  EXPECT_EQ(m.morsel, 0);
  EXPECT_FALSE(one.Next(&m));
}

TEST_F(MorselTest, SchedulerConcurrentPullsAreDisjointAndComplete) {
  const int64_t jobs = 5, per_job = 143;
  MorselScheduler sched(jobs, per_job);
  constexpr int kThreads = 8;
  std::vector<std::vector<MorselScheduler::Morsel>> pulled(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MorselScheduler::Morsel m;
      while (sched.Next(&m)) pulled[static_cast<size_t>(t)].push_back(m);
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<std::pair<int64_t, int64_t>> seen;
  for (const auto& list : pulled) {
    for (const MorselScheduler::Morsel& m : list) {
      EXPECT_TRUE(seen.emplace(m.job, m.morsel).second) << "unit dispatched twice";
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), jobs * per_job);
  EXPECT_EQ(sched.dispatched(), sched.total_morsels());
  // Every worker's pull loop ends on a failed poll.
  EXPECT_GE(sched.steal_waits(), kThreads);
}

/// The determinism matrix: for every θ shape and thread count, the base
/// split and the detail split must produce exactly the sequential
/// evaluator's table. TablesEqualOrdered compares cells with Value::Equals,
/// i.e. doubles bit-for-bit; the sales amounts are integer-valued so float
/// sums are exact under any merge order. 2500 detail rows make three
/// 1024-row morsels per job.
TEST_F(MorselTest, BitIdenticalAcrossThreadsAndThetaShapes) {
  Table sales = testutil::RandomSales(71, 2500);
  Table flat_base = *GroupByBase(sales, {"cust", "month"});
  Table cube_base = *CubeByBase(sales, {"prod", "month"});

  struct Shape {
    const char* name;
    const Table* base;
    ExprPtr theta;
  };
  std::vector<Shape> shapes = {
      {"equi", &flat_base,
       And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")))},
      {"equi+residual", &flat_base,
       And(Eq(RCol("cust"), BCol("cust")), Ge(RCol("month"), BCol("month")))},
      {"cube", &cube_base,
       And(Eq(RCol("prod"), BCol("prod")), Eq(RCol("month"), BCol("month")),
           Gt(RCol("sale"), Lit(30.0)))},
  };
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Min(RCol("sale"), "lo"), Avg(RCol("sale"), "a"),
                               CountDistinct(RCol("prod"), "dp")};

  for (const Shape& shape : shapes) {
    Result<Table> sequential = MdJoin(*shape.base, sales, aggs, shape.theta);
    ASSERT_TRUE(sequential.ok()) << shape.name;
    for (int threads : {1, 2, 8}) {
      MdJoinStats stats;
      Result<Table> split = ParallelMdJoin(*shape.base, sales, aggs, shape.theta,
                                           /*num_partitions=*/4, threads, {}, &stats);
      ASSERT_TRUE(split.ok()) << shape.name << " threads=" << threads << ": "
                              << split.status().ToString();
      EXPECT_TRUE(TablesEqualOrdered(*sequential, *split))
          << "base split: " << shape.name << " threads=" << threads;
      EXPECT_EQ(stats.detail_rows_scanned, 4 * sales.num_rows());
      EXPECT_EQ(stats.morsels, 4 * 3);

      MdJoinOptions options;
      options.num_threads = threads;
      Result<Table> detail =
          MdJoin(*shape.base, sales, aggs, shape.theta, options, &stats);
      ASSERT_TRUE(detail.ok()) << shape.name << " threads=" << threads << ": "
                               << detail.status().ToString();
      EXPECT_TRUE(TablesEqualOrdered(*sequential, *detail))
          << "detail split: " << shape.name << " threads=" << threads;
      EXPECT_EQ(stats.detail_rows_scanned, sales.num_rows());
      EXPECT_EQ(stats.threads, std::min(threads, 3));
    }
  }
}

TEST_F(MorselTest, ExecutorRoutesThroughMorselEngine) {
  Table sales = testutil::RandomSales(79, 2500);
  Table base = *GroupByBase(sales, {"cust"});
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  ASSERT_TRUE(catalog.Register("Base", &base).ok());
  PlanPtr plan = MdJoinPlan(TableRef("Base"), TableRef("Sales"),
                            {Count("n"), Sum(RCol("sale"), "total")},
                            Eq(RCol("cust"), BCol("cust")));

  ExecStats seq_stats;
  Result<Table> sequential = ExecutePlan(plan, catalog, {}, &seq_stats);
  ASSERT_TRUE(sequential.ok());

  MdJoinOptions options;
  options.num_threads = 4;
  ExecStats par_stats;
  Result<Table> parallel = ExecutePlan(plan, catalog, options, &par_stats);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(*sequential, *parallel));
  // Detail split: one logical scan of R either way.
  EXPECT_EQ(par_stats.detail_rows_scanned, seq_stats.detail_rows_scanned);
  EXPECT_EQ(par_stats.matched_pairs, seq_stats.matched_pairs);
}

TEST_F(MorselTest, CancelLandsMidMorselWithinStride) {
  Table sales = testutil::RandomSales(83, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));

  for (int variant = 0; variant < 2; ++variant) {
    FailpointRegistry::Global()->Reset();
    // Skip the entry check and a few worker strides so the cancel fires
    // while morsels are in flight, then verify cooperative shutdown.
    FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1, /*skip=*/4);
    QueryGuardOptions guard_options;
    guard_options.check_stride = 64;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    options.num_threads = 4;
    MdJoinStats stats;
    Result<Table> result =
        variant == 0 ? ParallelMdJoin(base, sales, aggs, theta, 4, 4, options, &stats)
                     : MdJoin(base, sales, aggs, theta, options, &stats);
    ASSERT_FALSE(result.ok()) << "variant=" << variant;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "variant=" << variant;
    // The cursor stopped being drained once the trip propagated.
    EXPECT_LT(stats.detail_rows_scanned, (variant == 0 ? 4 : 1) * sales.num_rows())
        << "variant=" << variant;
  }
}

TEST_F(MorselTest, WorkerFailpointPropagatesFirstError) {
  Table sales = testutil::RandomSales(89, 500);
  Table base = *GroupByBase(sales, {"cust"});
  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  Result<Table> result = ParallelMdJoin(base, sales, {Count("n")},
                                        Eq(RCol("cust"), BCol("cust")), 4, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);
}

/// Regression for the merge-tail guard gap: cancellation must be honored
/// inside the column MergeRange chunks (flat and heap-fallback states), not
/// only during scans. A pre-cancelled stride-1 guard has to stop the merge at
/// its first tick.
TEST_F(MorselTest, MergeShortCircuitsOnCancelledGuard) {
  Table sales = testutil::RandomSales(97, 50);
  Table base = *GroupByBase(sales, {"cust"});
  Result<std::vector<BoundAgg>> bound =
      BindAggs({Count("n"), CountDistinct(RCol("prod"), "dp")}, &base.schema(),
               &sales.schema());
  ASSERT_TRUE(bound.ok());

  QueryGuardOptions guard_options;
  guard_options.check_stride = 1;
  QueryGuard guard(guard_options);
  DetailScanWorker into(base.num_rows(), *bound, /*num_components=*/1, &guard);
  DetailScanWorker from(base.num_rows(), *bound, /*num_components=*/1, &guard);
  guard.Cancel();
  Status st = MergeWorkerPartials(&into, from, &guard);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace mdjoin
