/// Query-guardrail coverage: cooperative cancellation (before and mid-scan,
/// observed within one check stride), deadlines, memory accounting with
/// graceful degradation to multi-pass (Theorem 4.1), row/pair work budgets,
/// first-error-wins propagation out of the parallel paths, failpoint-driven
/// fault injection, and the hardened ThreadPool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "core/generalized.h"
#include "core/incremental.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "cube/base_tables.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

ExprPtr CustTheta() { return Eq(RCol("cust"), BCol("cust")); }

/// Resets the global failpoint registry around every test so armed points
/// never leak across tests.
class GuardrailTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_F(GuardrailTest, CancelBeforeScanAllPaths) {
  Table sales = testutil::RandomSales(41, 300);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  QueryGuard guard;
  guard.Cancel();
  MdJoinOptions options;
  options.guard = &guard;

  Result<Table> classic = MdJoin(base, sales, aggs, CustTheta(), options);
  ASSERT_FALSE(classic.ok());
  EXPECT_EQ(classic.status().code(), StatusCode::kCancelled);

  Result<Table> parallel =
      ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2, options);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kCancelled);

  MdJoinOptions threaded = options;
  threaded.num_threads = 2;
  Result<Table> split = MdJoin(base, sales, aggs, CustTheta(), threaded);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kCancelled);

  std::vector<MdJoinComponent> components = {{aggs, CustTheta()}};
  Result<Table> generalized = GeneralizedMdJoin(base, sales, components, options);
  ASSERT_FALSE(generalized.ok());
  EXPECT_EQ(generalized.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailTest, CancelMidScanObservedWithinStride) {
  Table sales = testutil::RandomSales(43, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  // The failpoint fires inside QueryGuard::Check at a stride boundary, which
  // is exactly where a concurrent Cancel() would first be seen. Skip the
  // first two checks (operator entry + first stride) so the cancel lands
  // mid-scan, then verify it is observed within one further stride.
  const int64_t stride = 64;
  QueryGuardOptions guard_options;
  guard_options.check_stride = stride;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1, /*skip=*/2);

  MdJoinStats stats;
  Result<Table> result = MdJoin(base, sales, aggs, CustTheta(), options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Two checks passed (entry + one stride of 64 rows), the third cancelled:
  // the scan stopped after at most two strides of detail rows.
  EXPECT_GT(stats.detail_rows_scanned, 0);
  EXPECT_LE(stats.detail_rows_scanned, 2 * stride);
  EXPECT_LT(stats.detail_rows_scanned, sales.num_rows());
}

TEST_F(GuardrailTest, CancelMidScanParallelPaths) {
  Table sales = testutil::RandomSales(45, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  for (int variant = 0; variant < 2; ++variant) {
    FailpointRegistry::Global()->Reset();
    FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1,
                                        /*skip=*/4);
    QueryGuardOptions guard_options;
    guard_options.check_stride = 64;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    options.num_threads = 2;
    Result<Table> result =
        variant == 0 ? ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2, options)
                     : MdJoin(base, sales, aggs, CustTheta(), options);
    ASSERT_FALSE(result.ok()) << "variant=" << variant;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "variant=" << variant;
  }
}

TEST_F(GuardrailTest, CancelledQueryProfileStillWellFormed) {
  // A query tripped mid-scan must still leave a coherent observability
  // record: a profile tree with partial counts, a non-ok terminal event, a
  // guard-trip instant in the trace, and a guard-trip counter increment.
  Table sales = testutil::RandomSales(49, 2000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")}, CustTheta());

  QueryGuardOptions guard_options;
  guard_options.check_stride = 64;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  // Every executor node gate evaluates the failpoint too (four plan nodes;
  // the detail TableRef is read in place), then the scan's entry check:
  // skipping ten lands the cancel a few strides into the detail scan, with
  // partial counts already accumulated.
  FailpointRegistry::Global()->Enable("query_guard:cancel", /*count=*/1,
                                      /*skip=*/10);

  Counter* trips = MetricsRegistry::Global().GetCounter("mdjoin_guard_trips_total");
  Counter* cancelled =
      MetricsRegistry::Global().GetCounter("mdjoin_guard_trips_cancelled_total");
  const int64_t trips_before = trips->value();
  const int64_t cancelled_before = cancelled->value();

  Tracing::Start();
  QueryProfile profile;
  Result<Table> result = ExplainAnalyze(plan, catalog, options, &profile);
  Tracing::Stop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The profile is well-formed despite the failure.
  ASSERT_NE(profile.root, nullptr);
  EXPECT_FALSE(profile.complete);
  EXPECT_NE(profile.terminal, "ok");
  EXPECT_NE(profile.terminal.find("Cancelled"), std::string::npos);
  EXPECT_GE(profile.total_ms, 0);
  // Partial scan counts from the strides that ran before the trip.
  EXPECT_TRUE(profile.root->is_mdjoin);
  EXPECT_GT(profile.root->detail_rows_scanned, 0);
  EXPECT_LT(profile.root->detail_rows_scanned, sales.num_rows());
  // The base subtree completed before the join started scanning; the
  // profile's children stay a prefix of the plan's (the detail is read in
  // place), as the lockstep walks over both trees require.
  ASSERT_EQ(profile.root->children.size(), 1u);
  EXPECT_EQ(profile.root->children[0]->label, plan->child(0)->Label());
  EXPECT_GT(profile.root->children[0]->output_rows, 0);
  // Rendering still works and carries the terminal event.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("terminal: "), std::string::npos);
  EXPECT_NE(text.find("Cancelled"), std::string::npos);
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(json.find("Cancelled"), std::string::npos);

  // The trip surfaced as a trace instant and a counter increment.
  EXPECT_EQ(trips->value(), trips_before + 1);
  EXPECT_EQ(cancelled->value(), cancelled_before + 1);
  bool saw_trip = false;
  for (const TraceEvent& e : Tracing::Snapshot()) {
    if (std::string(e.name) == "guard_trip") saw_trip = true;
  }
  EXPECT_TRUE(saw_trip);
}

TEST_F(GuardrailTest, DeadlineExpires) {
  Table sales = testutil::RandomSales(47, 200);
  Table base = *GroupByBase(sales, {"cust"});

  QueryGuardOptions guard_options;
  guard_options.timeout_ms = 1;
  QueryGuard guard(guard_options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
}

TEST_F(GuardrailTest, MemoryBudgetDegradesToMultiPass) {
  Table sales = testutil::RandomSales(49, 600);
  Table base = *GroupByBase(sales, {"cust", "month"});
  ExprPtr theta =
      And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("month"), BCol("month")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  MdJoinStats unguarded_stats;
  Result<Table> unguarded = MdJoin(base, sales, aggs, theta, {}, &unguarded_stats);
  ASSERT_TRUE(unguarded.ok());
  ASSERT_EQ(unguarded_stats.passes_over_detail, 1);

  // Budget: full state footprint plus index room for ~1/3 of the base rows.
  const int64_t n = base.num_rows();
  const int64_t per_pass_rows = std::max<int64_t>(1, n / 3);
  QueryGuardOptions guard_options;
  guard_options.memory_budget_bytes =
      static_cast<int64_t>(aggs.size()) * n * kGuardBytesPerAggState +
      per_pass_rows * kGuardBytesPerIndexedBaseRow;
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;

  MdJoinStats stats;
  Result<Table> guarded = MdJoin(base, sales, aggs, theta, options, &stats);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_TRUE(stats.memory_degraded);
  EXPECT_LE(stats.base_rows_per_pass_effective, per_pass_rows);
  EXPECT_GT(stats.passes_over_detail, 1);
  // Theorem 4.1: the multi-pass evaluation is result-identical, it only
  // trades extra scans of R for the smaller per-pass index.
  EXPECT_TRUE(TablesEqualOrdered(*unguarded, *guarded));
  EXPECT_EQ(stats.detail_rows_scanned,
            stats.passes_over_detail * sales.num_rows());
}

TEST_F(GuardrailTest, MemoryHardLimitFails) {
  Table sales = testutil::RandomSales(51, 200);
  Table base = *GroupByBase(sales, {"cust"});

  QueryGuardOptions guard_options;
  guard_options.memory_hard_limit_bytes = 64;  // nothing fits
  QueryGuard guard(guard_options);
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("hard limit"), std::string::npos);
}

/// A cube's group-id map is optional memory, charged at its size while the
/// join reads it. Under a soft budget that takes the aggregate states and the
/// map, the join reads relative sets by group id in one pass; one byte less
/// and it falls back to the BaseIndex, whose pass the budget then degrades.
/// Either way the reference result, and every byte released.
TEST_F(GuardrailTest, GroupIdMapFallsBackWhenItDoesNotFit) {
  Table sales = testutil::RandomSales(57, 400);
  const std::vector<std::string> dims = {"cust", "prod", "month", "state"};
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ASSERT_EQ(groups.unusable, nullptr);
  ExprPtr theta = Eq(RCol(dims[0]), BCol(dims[0]));
  for (size_t i = 1; i < dims.size(); ++i) {
    theta = And(theta, Eq(RCol(dims[i]), BCol(dims[i])));
  }
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  Result<Table> want = MdJoinReference(base, sales, aggs, theta);
  ASSERT_TRUE(want.ok());

  const int64_t states =
      static_cast<int64_t>(aggs.size()) * base.num_rows() * kGuardBytesPerAggState;
  for (const int64_t budget : {states + groups.ApproxBytes(), states + groups.ApproxBytes() - 1}) {
    const bool fits = budget == states + groups.ApproxBytes();
    SCOPED_TRACE(::testing::Message() << "fits=" << fits);
    QueryGuardOptions guard_options;
    guard_options.memory_budget_bytes = budget;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    MdJoinStats stats;
    Result<Table> got = MdJoin(base, sales, aggs, theta, options, &stats, &groups);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
    if (fits) {
      EXPECT_EQ(stats.route, RelativeSetRoute::kGroupIds);
      EXPECT_EQ(stats.route_reason, nullptr);
      EXPECT_EQ(stats.passes_over_detail, 1);
      EXPECT_EQ(stats.index_probe_lookups, 0);
      EXPECT_GE(guard.bytes_high_water(), states + groups.ApproxBytes());
    } else {
      EXPECT_EQ(stats.route, RelativeSetRoute::kIndex);
      EXPECT_STREQ(stats.route_reason, "the map does not fit the guard's headroom");
      EXPECT_TRUE(stats.memory_degraded);
      EXPECT_EQ(stats.index_probe_lookups, stats.passes_over_detail * sales.num_rows());
    }
    EXPECT_EQ(guard.bytes_reserved(), 0);
  }
}

/// The map leaves room for what the scan itself reserves: an uncached paged
/// detail decodes the chunks of θ's and the aggregates' columns of each
/// block into a guard-charged pin. Under a soft budget that takes the
/// aggregate states and the map but not such a decode as well, the join
/// falls back to the index; with room for both, the map runs. The hard limit
/// leaves room for the output either way.
TEST_F(GuardrailTest, GroupIdMapLeavesRoomForUncachedDecodedBlocks) {
  Table sales = testutil::RandomSales(59, 3000);
  const std::vector<std::string> dims = {"cust", "prod", "month", "state"};
  GroupIdMap groups;
  Table base = *CubeByBase(sales, dims, &groups);
  ASSERT_EQ(groups.unusable, nullptr);
  ExprPtr theta = Eq(RCol(dims[0]), BCol(dims[0]));
  for (size_t i = 1; i < dims.size(); ++i) {
    theta = And(theta, Eq(RCol(dims[i]), BCol(dims[i])));
  }
  std::vector<AggSpec> aggs = {Sum(RCol("sale"), "total")};
  Result<Table> want = MdJoinReference(base, sales, aggs, theta);
  ASSERT_TRUE(want.ok());

  const std::string path = (std::filesystem::temp_directory_path() /
                            ("mdjoin_guardrail_blocks_" +
                             std::to_string(reinterpret_cast<uintptr_t>(&sales))))
                               .string();
  BlockFileOptions file_options;
  file_options.block_size_rows = 1024;
  ASSERT_TRUE(WriteBlockFile(sales, path, file_options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(path);
  ASSERT_TRUE(paged.ok());
  std::vector<int> read_cols;  // the dims and sale, in schema order
  for (const char* name : {"cust", "prod", "month", "state", "sale"}) {
    read_cols.push_back(*sales.schema().GetFieldIndex(name));
  }
  ASSERT_TRUE(std::is_sorted(read_cols.begin(), read_cols.end()));
  int64_t block = 0;
  for (int b = 0; b < (*paged)->num_blocks(); ++b) {
    block = std::max(block, (*paged)->ApproxBlockBytes(b, read_cols));
  }

  // What the map route holds while it scans (states, map, one decoded
  // block), and what the output phase holds.
  const int64_t n = base.num_rows();
  const int64_t states = n * kGuardBytesPerAggState;
  const int64_t scan = states + groups.ApproxBytes() + block;
  const int64_t output = states + n * (base.num_columns() + 1) * kGuardBytesPerOutputCell;
  for (const int64_t budget : {scan - 1, scan}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    QueryGuardOptions guard_options;
    guard_options.memory_budget_bytes = budget;
    guard_options.memory_hard_limit_bytes = std::max(scan, output);
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    MdJoinStats stats;
    Result<Table> got = PagedMdJoin(base, **paged, {{aggs, theta}}, options, &stats, &groups);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(*want, *got));
    EXPECT_EQ(stats.columns,
              (std::vector<std::string>{"cust", "prod", "month", "state", "sale"}));
    if (budget == scan) {
      EXPECT_EQ(stats.route, RelativeSetRoute::kGroupIds);
      EXPECT_EQ(stats.index_probe_lookups, 0);
    } else {
      EXPECT_EQ(stats.route, RelativeSetRoute::kIndex);
      EXPECT_STREQ(stats.route_reason, "the map does not fit the guard's headroom");
    }
    EXPECT_EQ(guard.bytes_reserved(), 0);
  }
  paged->reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// Memory-budget parity across thread counts and component counts. The soft
/// budget equals the hard limit, as the CLI's --memory-limit and QueryService
/// admission set it. Wherever the 1-thread MdJoin succeeds, every route —
/// MdJoin and a one-component GeneralizedMdJoin with the same aggregates, and
/// a three-component GeneralizedMdJoin splitting them one per component — at
/// every thread count must succeed with the same table: extra workers and
/// extra component indexes cost passes, never the query.
TEST_F(GuardrailTest, MemoryBudgetParityAcrossThreadsAndComponents) {
  Table sales = testutil::RandomSales(1, 5000, /*num_cust=*/1000);
  Table base = *GroupByBase(sales, {"cust"});
  const int64_t n = base.num_rows();
  // Budgets in bytes per base row: one sum needs 64 of aggregate state plus
  // 96 of output and 128 per indexed row of a pass; three aggregates 192 +
  // 192 + 128. The smaller budgets force the 1-thread MdJoin into several
  // passes (or fail it outright).
  struct AggSet {
    std::vector<AggSpec> aggs;
    std::vector<int64_t> bytes_per_row;
  };
  const std::vector<AggSet> agg_sets = {
      {{Sum(RCol("sale"), "total")}, {150, 170, 200, 260, 400}},
      {{Sum(RCol("sale"), "total"), Count("cnt"), Max(RCol("sale"), "hi")},
       {380, 400, 450, 520, 700, 1000}}};
  int64_t multi_pass_cells = 0;
  for (const AggSet& set : agg_sets) {
    const std::vector<AggSpec>& aggs = set.aggs;
    std::vector<MdJoinComponent> one = {{aggs, CustTheta()}};
    std::vector<MdJoinComponent> split;
    split.reserve(aggs.size());
    for (const AggSpec& a : aggs) split.push_back({{a}, CustTheta()});
    for (int64_t per_row : set.bytes_per_row) {
      QueryGuardOptions guard_options;
      guard_options.memory_budget_bytes = per_row * n;
      guard_options.memory_hard_limit_bytes = per_row * n;
      QueryGuard seq_guard(guard_options);
      MdJoinOptions seq_options;
      seq_options.guard = &seq_guard;
      Result<Table> want = MdJoin(base, sales, aggs, CustTheta(), seq_options);
      if (!want.ok()) continue;
      for (int threads : {1, 2, 4}) {
        for (int route = 0; route < 3; ++route) {
          if (aggs.size() == 1 && route == 2) continue;  // same as route 1
          SCOPED_TRACE(::testing::Message()
                       << "aggs=" << aggs.size() << " bytes/row=" << per_row
                       << " threads=" << threads << " route=" << route);
          QueryGuard guard(guard_options);
          MdJoinOptions options;
          options.guard = &guard;
          options.num_threads = threads;
          MdJoinStats stats;
          Result<Table> got =
              route == 0   ? MdJoin(base, sales, aggs, CustTheta(), options, &stats)
              : route == 1 ? GeneralizedMdJoin(base, sales, one, options, &stats)
                           : GeneralizedMdJoin(base, sales, split, options, &stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(TablesEqualOrdered(*want, *got));
          EXPECT_EQ(guard.bytes_reserved(), 0);
          if (stats.passes_over_detail > 1) ++multi_pass_cells;
        }
      }
    }
  }
  // The grid reaches the budgets where the 1-thread MdJoin itself needs
  // several passes, so the parity is not vacuous.
  EXPECT_GT(multi_pass_cells, 0);
}

TEST_F(GuardrailTest, DetailRowAndPairBudgets) {
  Table sales = testutil::RandomSales(53, 500);
  Table base = *GroupByBase(sales, {"cust"});

  {
    QueryGuardOptions guard_options;
    guard_options.max_detail_rows = 100;
    guard_options.check_stride = 32;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted());
    EXPECT_NE(result.status().message().find("detail-row budget"), std::string::npos);
  }
  {
    QueryGuardOptions guard_options;
    guard_options.max_candidate_pairs = 50;
    guard_options.check_stride = 32;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted());
    EXPECT_NE(result.status().message().find("candidate-pair budget"),
              std::string::npos);
  }
}

TEST_F(GuardrailTest, GuardedRunMatchesUnguardedAndAccountsWork) {
  Table sales = testutil::RandomSales(55, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  Result<Table> unguarded = MdJoin(base, sales, aggs, CustTheta());
  ASSERT_TRUE(unguarded.ok());

  QueryGuard guard;  // no limits: pure observation
  MdJoinOptions options;
  options.guard = &guard;
  MdJoinStats stats;
  Result<Table> guarded = MdJoin(base, sales, aggs, CustTheta(), options, &stats);
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(TablesEqualOrdered(*unguarded, *guarded));
  // GuardTicket::Finish flushes the tail, so accounting is exact.
  EXPECT_EQ(guard.detail_rows_seen(), stats.detail_rows_scanned);
  EXPECT_EQ(guard.candidate_pairs_seen(), stats.candidate_pairs);
  EXPECT_GT(guard.bytes_high_water(), 0);
  EXPECT_EQ(guard.bytes_reserved(), 0);  // everything released
}

TEST_F(GuardrailTest, ParallelFragmentErrorFirstErrorWins) {
  Table sales = testutil::RandomSales(57, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n")};

  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  Result<Table> result = ParallelMdJoin(base, sales, aggs, CustTheta(), 4, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);

  FailpointRegistry::Global()->Reset();
  FailpointRegistry::Global()->Enable("parallel:fragment_error", /*count=*/1);
  MdJoinOptions threaded;
  threaded.num_threads = 2;
  result = MdJoin(base, sales, aggs, CustTheta(), threaded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("parallel:fragment_error"),
            std::string::npos);
}

TEST_F(GuardrailTest, ParallelNullThetaSymmetry) {
  Table sales = testutil::SmallSales();
  Table base = *GroupByBase(sales, {"cust"});
  // Both splits reject a null θ the same way (this was asymmetric).
  Result<Table> a = ParallelMdJoin(base, sales, {Count("n")}, nullptr, 2, 2);
  ASSERT_FALSE(a.ok());
  EXPECT_TRUE(a.status().IsInvalidArgument());
  MdJoinOptions threaded;
  threaded.num_threads = 2;
  Result<Table> b = MdJoin(base, sales, {Count("n")}, nullptr, threaded);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsInvalidArgument());
}

TEST_F(GuardrailTest, ParallelStatsAggregateAcrossFragments) {
  Table sales = testutil::RandomSales(59, 400);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};

  MdJoinStats seq;
  ASSERT_TRUE(MdJoin(base, sales, aggs, CustTheta(), {}, &seq).ok());

  const int partitions = 4;
  MdJoinStats base_split;
  ASSERT_TRUE(ParallelMdJoin(base, sales, aggs, CustTheta(), partitions, 2, {},
                             &base_split)
                  .ok());
  // Theorem 4.1 split: every fragment scans all of R; base rows (and thus
  // candidate/matched pairs) partition across fragments.
  EXPECT_EQ(base_split.detail_rows_scanned, partitions * sales.num_rows());
  EXPECT_EQ(base_split.detail_rows_qualified, partitions * seq.detail_rows_qualified);
  EXPECT_EQ(base_split.candidate_pairs, seq.candidate_pairs);
  EXPECT_EQ(base_split.matched_pairs, seq.matched_pairs);
  EXPECT_EQ(base_split.agg_updates, seq.agg_updates);
  // Morsel scheduling: 400 rows fit one 1024-row morsel, so each fragment
  // is one unit, all four dispatched; each worker's pull loop ends on a
  // drained poll.
  EXPECT_EQ(base_split.threads, 2);
  EXPECT_EQ(base_split.morsels, partitions);
  EXPECT_GE(base_split.steal_waits, 2);

  MdJoinOptions threaded;
  threaded.num_threads = 2;
  MdJoinStats detail_split;
  ASSERT_TRUE(MdJoin(base, sales, aggs, CustTheta(), threaded, &detail_split).ok());
  // Detail split: R is scanned exactly once in total; every pair is tested
  // exactly once across workers.
  EXPECT_EQ(detail_split.detail_rows_scanned, sales.num_rows());
  EXPECT_EQ(detail_split.detail_rows_qualified, seq.detail_rows_qualified);
  EXPECT_EQ(detail_split.candidate_pairs, seq.candidate_pairs);
  EXPECT_EQ(detail_split.matched_pairs, seq.matched_pairs);
  // 400 detail rows fit in one morsel, so exactly one worker runs.
  EXPECT_EQ(detail_split.morsels, 1);
  EXPECT_EQ(detail_split.threads, 1);
}

TEST_F(GuardrailTest, ExecutorObservesGuard) {
  Table sales = testutil::RandomSales(61, 300);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  Table base = *GroupByBase(sales, {"cust"});
  ASSERT_TRUE(catalog.Register("Base", &base).ok());
  PlanPtr plan = MdJoinPlan(TableRef("Base"), TableRef("Sales"),
                            {Count("n"), Sum(RCol("sale"), "total")}, CustTheta());

  {
    QueryGuard guard;
    guard.Cancel();
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = ExecutePlan(plan, catalog, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    FailpointRegistry::Global()->Enable("executor:node_error", /*count=*/1);
    Result<Table> result = ExecutePlan(plan, catalog);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("executor:node_error"),
              std::string::npos);
  }
  {
    // A hard limit smaller than the materialized detail table trips the
    // executor's per-node memory accounting.
    QueryGuardOptions guard_options;
    guard_options.memory_hard_limit_bytes = 1024;
    QueryGuard guard(guard_options);
    MdJoinOptions options;
    options.guard = &guard;
    Result<Table> result = ExecutePlan(plan, catalog, options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status().ToString();
  }
}

TEST_F(GuardrailTest, IncrementalMaintenanceObservesGuard) {
  Table sales = testutil::RandomSales(63, 200);
  Table base = *GroupByBase(sales, {"cust"});
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  Result<Table> previous = MdJoin(base, sales, aggs, CustTheta());
  ASSERT_TRUE(previous.ok());
  Table delta = testutil::RandomSales(64, 50);

  QueryGuard guard;
  guard.Cancel();
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoinApplyDelta(*previous, delta, aggs, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailTest, ReserveFailpointInjectsAllocationFailure) {
  Table sales = testutil::RandomSales(65, 200);
  Table base = *GroupByBase(sales, {"cust"});
  FailpointRegistry::Global()->Enable("query_guard:reserve", /*count=*/1);
  QueryGuard guard;
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")}, CustTheta(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_NE(result.status().message().find("query_guard:reserve"), std::string::npos);
  EXPECT_EQ(FailpointRegistry::Global()->fire_count("query_guard:reserve"), 1);
}

TEST_F(GuardrailTest, FailpointRegistrySpecAndCounts) {
  FailpointRegistry* registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry->LoadSpec("a:x=2@1; b:y=-1,c:z=1").ok());
  // a:x skips one evaluation then fires twice.
  EXPECT_FALSE(registry->Evaluate("a:x"));
  EXPECT_TRUE(registry->Evaluate("a:x"));
  EXPECT_TRUE(registry->Evaluate("a:x"));
  EXPECT_FALSE(registry->Evaluate("a:x"));
  EXPECT_EQ(registry->fire_count("a:x"), 2);
  // b:y fires forever.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(registry->Evaluate("b:y"));
  // c:z fires once.
  EXPECT_TRUE(registry->Evaluate("c:z"));
  EXPECT_FALSE(registry->Evaluate("c:z"));
  // Unknown points never fire; malformed specs error.
  EXPECT_FALSE(registry->Evaluate("nope"));
  EXPECT_FALSE(registry->LoadSpec("missing-equals").ok());
  EXPECT_FALSE(registry->LoadSpec("p=abc").ok());
  registry->Reset();
  EXPECT_FALSE(registry->Evaluate("b:y"));
}

TEST_F(GuardrailTest, ThreadPoolCancelDrainsQueue) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};

  // Occupy the single worker so the follow-up tasks stay queued.
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  // Every queued-but-unstarted task was dropped.
  EXPECT_EQ(ran.load(), 0);
  // The pool remains usable after a Cancel round.
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace mdjoin
