/// Workload-telemetry coverage (DESIGN.md §15): AnalyzeTable statistics (HLL
/// NDV error bound, equi-depth histogram selectivity bound, θ-semantics of
/// SelectivityCmp), the plan-feedback store (EWMA folding, bounded FIFO
/// eviction, fingerprint stability), the query-history ring and its JSONL
/// round-trip, estimated-vs-actual EXPLAIN ANALYZE annotations, and the
/// feedback-convergence property: a repeated query's max Q-error strictly
/// decreases while results stay bit-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/cost.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "server/query_service.h"
#include "stats/feedback.h"
#include "stats/query_log.h"
#include "stats/table_stats.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::S;

// ---------------------------------------------------------------------------
// HLL NDV sketch

TEST(HllSketchTest, EstimateWithinErrorBound) {
  // Standard error at 1024 registers is ~3.3%; 15% is a generous property
  // bound that still catches a broken mix or register update.
  for (int64_t n : {10, 100, 1000, 20000}) {
    HllSketch sketch;
    for (int64_t i = 0; i < n; ++i) sketch.Add(Value::Int64(i * 7919 + 3));
    const double estimate = static_cast<double>(sketch.Estimate());
    EXPECT_GT(estimate, 0.85 * static_cast<double>(n)) << "n=" << n;
    EXPECT_LT(estimate, 1.15 * static_cast<double>(n)) << "n=" << n;
  }
}

TEST(HllSketchTest, SmallCardinalitiesNearExact) {
  // Linear counting makes tiny cardinalities essentially exact.
  HllSketch sketch;
  for (int64_t i = 0; i < 5; ++i) {
    sketch.Add(Value::Int64(i));
    sketch.Add(Value::Int64(i));  // duplicates must not inflate
  }
  EXPECT_GE(sketch.Estimate(), 4);
  EXPECT_LE(sketch.Estimate(), 6);
  EXPECT_GT(sketch.nonzero_registers(), 0);
}

// ---------------------------------------------------------------------------
// Equi-depth histograms + AnalyzeTable

TEST(AnalyzeTableTest, BasicsOnSmallSales) {
  Table sales = testutil::SmallSales();
  Result<TableStats> stats = AnalyzeTable(sales, "Sales");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->table_name, "Sales");
  EXPECT_EQ(stats->num_rows, 12);
  ASSERT_EQ(stats->columns.size(), 7u);

  const ColumnStats* cust = stats->FindColumn("cust");
  ASSERT_NE(cust, nullptr);
  EXPECT_EQ(cust->null_count, 0);
  EXPECT_EQ(cust->all_count, 0);
  EXPECT_EQ(cust->min.int64(), 1);
  EXPECT_EQ(cust->max.int64(), 4);
  // 4 distinct customers; HLL at tiny n is linear counting, near exact.
  EXPECT_GE(cust->ndv, 3);
  EXPECT_LE(cust->ndv, 5);
  EXPECT_TRUE(cust->histogram.valid());

  EXPECT_EQ(stats->FindColumn("no_such_column"), nullptr);
  // The summary names the table and every column.
  const std::string summary = stats->SummaryText();
  EXPECT_NE(summary.find("Sales"), std::string::npos);
  EXPECT_NE(summary.find("cust"), std::string::npos);
}

TEST(AnalyzeTableTest, EquiDepthSelectivityBound) {
  // Classic equi-depth bound: a range estimate is off by at most ~1 bucket's
  // worth of rows. We pin 2/buckets + epsilon on a skewed random column.
  const int64_t rows = 4000;
  Table sales = testutil::RandomSales(/*seed=*/42, rows);
  AnalyzeOptions options;
  options.histogram_buckets = 32;
  Result<TableStats> stats = AnalyzeTable(sales, "Sales", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ColumnStats* sale = stats->FindColumn("sale");
  ASSERT_NE(sale, nullptr);
  ASSERT_TRUE(sale->histogram.valid());

  const double bound = 2.0 / options.histogram_buckets + 0.02;
  for (double v : {25.0, 100.0, 250.0, 400.0, 499.0}) {
    int64_t true_count = 0;
    for (int64_t i = 0; i < rows; ++i) {
      if (sales.column(6)[i].float64() <= v) ++true_count;
    }
    const double true_frac = static_cast<double>(true_count) / rows;
    const double est_frac = sale->histogram.FractionLessOrEqual(Value::Float64(v));
    EXPECT_NEAR(est_frac, true_frac, bound) << "v=" << v;
  }
}

TEST(AnalyzeTableTest, SelectivityCmpThetaSemantics) {
  // A base-values-style column: plain values, ALL markers, and NULLs.
  TableBuilder b(Schema({{"d", DataType::kInt64}}));
  for (int64_t i = 0; i < 8; ++i) b.AppendRowOrDie({I(i % 4)});
  b.AppendRowOrDie({Value::All()});
  b.AppendRowOrDie({Value::All()});
  b.AppendRowOrDie({Value::Null()});
  Table t = std::move(b).Finish();

  Result<TableStats> stats = AnalyzeTable(t, "base_values");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const ColumnStats* d = stats->FindColumn("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->all_count, 2);
  EXPECT_EQ(d->null_count, 1);

  // kEq folds the ALL wildcard fraction in; ordered comparisons never match
  // ALL or NULL rows, so their selectivity cannot reach 1.
  const double eq_in_range = d->SelectivityCmp(CmpOp::kEq, Value::Int64(2));
  EXPECT_GE(eq_in_range, 2.0 / 11);  // at least the ALL rows match
  const double eq_out_of_range = d->SelectivityCmp(CmpOp::kEq, Value::Int64(99));
  EXPECT_GE(eq_out_of_range, 0);
  EXPECT_LE(eq_out_of_range, 2.0 / 11 + 1e-9);  // only the ALL rows
  const double le_max = d->SelectivityCmp(CmpOp::kLe, Value::Int64(3));
  EXPECT_LE(le_max, 8.0 / 11 + 1e-9);
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    const double s = d->SelectivityCmp(op, Value::Int64(1));
    EXPECT_GE(s, 0);
    EXPECT_LE(s, 1);
  }
}

// ---------------------------------------------------------------------------
// Feedback store

TEST(FeedbackStoreTest, EwmaFoldAndLookup) {
  FeedbackStore store;
  EXPECT_FALSE(store.Lookup(1).has_value());
  store.Record(1, /*output_rows=*/100);
  auto first = store.Lookup(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->output_rows, 100);  // first observation seeds
  EXPECT_EQ(first->observations, 1);
  store.Record(1, /*output_rows=*/50);
  auto second = store.Lookup(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->output_rows, 75);  // 0.5*50 + 0.5*100
  EXPECT_EQ(second->observations, 2);
  // A negative field leaves the previous value untouched.
  store.Record(1, /*output_rows=*/-1, /*detail_rows_scanned=*/300);
  auto third = store.Lookup(1);
  ASSERT_TRUE(third.has_value());
  EXPECT_DOUBLE_EQ(third->output_rows, 75);
  EXPECT_DOUBLE_EQ(third->detail_rows_scanned, 300);
}

TEST(FeedbackStoreTest, BoundedFifoEviction) {
  FeedbackStore::Options options;
  options.max_entries = 4;
  FeedbackStore store(options);
  for (uint64_t fp = 1; fp <= 6; ++fp) store.Record(fp, 10.0 * fp);
  EXPECT_EQ(store.size(), 4);
  EXPECT_FALSE(store.Lookup(1).has_value());  // oldest two evicted
  EXPECT_FALSE(store.Lookup(2).has_value());
  EXPECT_TRUE(store.Lookup(5).has_value());
  EXPECT_TRUE(store.Lookup(6).has_value());
  store.Clear();
  EXPECT_EQ(store.size(), 0);
}

TEST(FeedbackStoreTest, PlanFingerprintIdentity) {
  // FNV-1a offset basis for the empty string, by definition.
  EXPECT_EQ(FingerprintString(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(FingerprintString("a"), FingerprintString("b"));

  Table sales = testutil::SmallSales();
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr p1 = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                          Eq(RCol("cust"), BCol("cust")));
  PlanPtr p2 = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                          Eq(RCol("cust"), BCol("cust")));
  PlanPtr p3 = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                          Eq(RCol("prod"), BCol("cust")));
  EXPECT_EQ(PlanFingerprint(p1), PlanFingerprint(p2));  // structural identity
  EXPECT_NE(PlanFingerprint(p1), PlanFingerprint(p3));
}

// ---------------------------------------------------------------------------
// Query history + JSONL log

TEST(QueryLogTest, JsonlRoundTrip) {
  QueryRecord record;
  record.fingerprint = 0xdeadbeefcafef00dULL;
  record.plan_hash = 42;
  record.wall_ms = 12.5;
  record.cpu_ms = 3.25;
  record.rows = 1000;
  record.outcome = "deadline";
  record.cache = "rollup";
  record.queue_wait_ms = 7;
  record.detail_rows_scanned = 123456;
  record.blocks_read = 17;
  record.spill_bytes = 4096;
  record.guard_tripped = true;
  record.max_qerror = 2.75;
  record.slow = true;

  Result<QueryRecord> parsed = QueryRecord::FromJsonl(record.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->fingerprint, record.fingerprint);
  EXPECT_EQ(parsed->plan_hash, record.plan_hash);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, record.wall_ms);
  EXPECT_DOUBLE_EQ(parsed->cpu_ms, record.cpu_ms);
  EXPECT_EQ(parsed->rows, record.rows);
  EXPECT_EQ(parsed->outcome, record.outcome);
  EXPECT_EQ(parsed->cache, record.cache);
  EXPECT_EQ(parsed->queue_wait_ms, record.queue_wait_ms);
  EXPECT_EQ(parsed->detail_rows_scanned, record.detail_rows_scanned);
  EXPECT_EQ(parsed->blocks_read, record.blocks_read);
  EXPECT_EQ(parsed->spill_bytes, record.spill_bytes);
  EXPECT_EQ(parsed->guard_tripped, record.guard_tripped);
  EXPECT_DOUBLE_EQ(parsed->max_qerror, record.max_qerror);
  EXPECT_EQ(parsed->slow, record.slow);

  EXPECT_FALSE(QueryRecord::FromJsonl("{}").ok());
  EXPECT_FALSE(QueryRecord::FromJsonl("not json").ok());
}

TEST(QueryLogTest, RingEvictsOldestAndLogsJsonl) {
  const std::string path = ::testing::TempDir() + "/stats_test_qlog.jsonl";
  std::remove(path.c_str());
  {
    QueryHistory::Options options;
    options.capacity = 4;
    options.log_path = path;
    QueryHistory history(options);
    for (int i = 1; i <= 6; ++i) {
      QueryRecord record;
      record.fingerprint = static_cast<uint64_t>(i);
      record.rows = i;
      history.Record(std::move(record));
    }
    EXPECT_EQ(history.total_recorded(), 6);
    std::vector<QueryRecord> ring = history.Snapshot();
    ASSERT_EQ(ring.size(), 4u);
    // Oldest-first rotation: 3, 4, 5, 6.
    for (size_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i].fingerprint, i + 3) << "i=" << i;
    }
    EXPECT_NE(history.SummaryText().find("6"), std::string::npos);
  }
  // The JSONL file holds all six records, each line parseable.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    Result<QueryRecord> parsed = QueryRecord::FromJsonl(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << " line: " << line;
    EXPECT_EQ(parsed->fingerprint, static_cast<uint64_t>(lines + 1));
    ++lines;
  }
  EXPECT_EQ(lines, 6);
  std::remove(path.c_str());
}

TEST(QueryLogTest, SlowQueryDetection) {
  QueryHistory::Options options;
  options.capacity = 8;
  options.slow_query_ms = 10;
  QueryHistory history(options);
  QueryRecord fast;
  fast.wall_ms = 2;
  history.Record(std::move(fast));
  QueryRecord slow;
  slow.wall_ms = 50;
  history.Record(std::move(slow));
  std::vector<QueryRecord> ring = history.Snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_FALSE(ring[0].slow);
  EXPECT_TRUE(ring[1].slow);
}

// ---------------------------------------------------------------------------
// Catalog stats registration + cost model

TEST(StatsCostTest, RegisterStatsAndEstimate) {
  Table sales = testutil::RandomSales(/*seed=*/3, 2000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  EXPECT_EQ(catalog.FindStats("Sales"), nullptr);
  Result<TableStats> stats = AnalyzeTable(sales, "Sales");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(catalog.RegisterStats("NoSuchTable", &*stats).ok());
  ASSERT_TRUE(catalog.RegisterStats("Sales", &*stats).ok());
  EXPECT_EQ(catalog.FindStats("Sales"), &*stats);

  // Filter selectivity now comes from the histogram: a narrow predicate must
  // estimate fewer rows than the 0.3-constant fallback would.
  PlanPtr narrow = FilterPlan(TableRef("Sales"), Lt(Col("sale"), Lit(Value::Float64(10))));
  Result<PlanCost> with_stats = EstimateCost(narrow, catalog);
  ASSERT_TRUE(with_stats.ok()) << with_stats.status().ToString();
  EXPECT_LT(with_stats->output_rows, 0.3 * 2000);
}

TEST(StatsCostTest, ResultsIdenticalWithAndWithoutStats) {
  Table sales = testutil::RandomSales(/*seed=*/9, 1500);
  PlanPtr plan = MdJoinPlan(
      CubeBasePlan(TableRef("Sales"), {"prod", "month"}), TableRef("Sales"),
      {Sum(RCol("sale"), "total"), Count("n")},
      And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month"))));

  Catalog plain;
  ASSERT_TRUE(plain.Register("Sales", &sales).ok());
  Result<PlanPtr> optimized_plain = OptimizePlan(plan, plain);
  ASSERT_TRUE(optimized_plain.ok());
  Result<Table> result_plain = ExecutePlan(*optimized_plain, plain);
  ASSERT_TRUE(result_plain.ok());

  Catalog with_stats;
  ASSERT_TRUE(with_stats.Register("Sales", &sales).ok());
  Result<TableStats> stats = AnalyzeTable(sales, "Sales");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(with_stats.RegisterStats("Sales", &*stats).ok());
  Result<PlanPtr> optimized_stats = OptimizePlan(plan, with_stats);
  ASSERT_TRUE(optimized_stats.ok());
  Result<Table> result_stats = ExecutePlan(*optimized_stats, with_stats);
  ASSERT_TRUE(result_stats.ok());

  // Statistics are advisory: plan choices may differ, results may not.
  EXPECT_TRUE(TablesEqualUnordered(*result_plain, *result_stats));
}

TEST(StatsCostTest, QErrorFloorsAndSymmetry) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(QError(100, 200), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);  // both floored to one row
  EXPECT_GE(QError(0, 50), 1.0);
}

// ---------------------------------------------------------------------------
// Estimated-vs-actual instrumentation + feedback convergence

TEST(EstimateActualTest, ExplainAnalyzeAnnotatesEstimates) {
  Table sales = testutil::RandomSales(/*seed=*/5, 1000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));

  QueryProfile profile;
  Result<Table> result = ExplainAnalyze(plan, catalog, {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(profile.root, nullptr);
  EXPECT_GE(profile.root->est_rows, 0);
  EXPECT_GE(profile.root->qerror(), 1.0);
  EXPECT_GE(profile.max_qerror, 1.0);

  const std::string text = profile.ToText();
  EXPECT_NE(text.find("est="), std::string::npos);
  EXPECT_NE(text.find("act="), std::string::npos);
  EXPECT_NE(text.find("qerr="), std::string::npos);
  EXPECT_NE(text.find("max q-error:"), std::string::npos);
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"est_rows\""), std::string::npos);
  EXPECT_NE(json.find("\"max_qerror\""), std::string::npos);
}

TEST(EstimateActualTest, FeedbackConvergenceOnRepeatedCubeQuery) {
  Table sales = testutil::RandomSales(/*seed=*/11, 3000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr plan = MdJoinPlan(
      CubeBasePlan(TableRef("Sales"), {"prod", "month"}), TableRef("Sales"),
      {Sum(RCol("sale"), "total"), Count("n")},
      And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month"))));

  FeedbackStore feedback;
  MdJoinOptions options;
  options.feedback = &feedback;

  QueryProfile run1;
  Result<Table> result1 = ExplainAnalyze(plan, catalog, options, &run1);
  ASSERT_TRUE(result1.ok()) << result1.status().ToString();
  EXPECT_GT(feedback.size(), 0);  // harvest happened

  QueryProfile run2;
  Result<Table> result2 = ExplainAnalyze(plan, catalog, options, &run2);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();

  // Run 2 estimates from run 1's measurements: strictly better, and the
  // results are bit-identical (feedback is advisory).
  EXPECT_GE(run1.max_qerror, 1.0);
  EXPECT_GE(run2.max_qerror, 1.0);
  EXPECT_LT(run2.max_qerror, run1.max_qerror);
  EXPECT_TRUE(TablesEqualUnordered(*result1, *result2));
}

TEST(EstimateActualTest, ServiceCollectsFeedbackAndHistory) {
  Table sales = testutil::RandomSales(/*seed=*/13, 1200);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("prod"), "prod"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("prod"), BCol("prod")));

  QueryServiceOptions options;
  options.collect_feedback = true;
  options.cache_capacity_bytes = 0;  // force both runs through the engine
  QueryService service(catalog, options);
  auto session = service.OpenSession();
  ASSERT_TRUE(session->Execute(plan).ok());
  ASSERT_TRUE(session->Execute(plan).ok());

  EXPECT_GT(service.feedback().size(), 0);
  ASSERT_NE(service.history(), nullptr);
  std::vector<QueryRecord> records = service.history()->Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "ok");
  EXPECT_EQ(records[0].fingerprint, records[1].fingerprint);
  EXPECT_GE(records[0].max_qerror, 1.0);
  EXPECT_GE(records[1].max_qerror, 1.0);
  // Same convergence property through the service path.
  EXPECT_LE(records[1].max_qerror, records[0].max_qerror);
}

TEST(EstimateActualTest, ServiceRecordsBlocksReadWithAndWithoutFeedback) {
  // Over a paged Sales, a query record's blocks_read comes from the engine's
  // counters, so it is the same whether or not the query ran profiled.
  const Table sales = testutil::RandomSales(/*seed=*/17, 1200);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mdjoin_stats_record_" + std::to_string(reinterpret_cast<uintptr_t>(&sales)) +
        ".mdjb"))
          .string();
  BlockFileOptions file_options;
  file_options.block_size_rows = 256;
  ASSERT_TRUE(WriteBlockFile(sales, path, file_options).ok());
  Result<std::unique_ptr<PagedTable>> paged = PagedTable::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", **paged).ok());

  std::vector<int64_t> blocks_read;
  for (const bool feedback : {false, true}) {
    SCOPED_TRACE(feedback ? "collect_feedback on" : "collect_feedback off");
    QueryServiceOptions options;
    options.collect_feedback = feedback;
    options.cache_capacity_bytes = 0;  // every query runs the engine
    QueryService service(catalog, options);
    auto session = service.OpenSession();
    Result<QueryResult> result = session->ExecuteQueryString(
        "select prod, sum(sale) as total from Sales analyze by group(prod)");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(service.history(), nullptr);
    const std::vector<QueryRecord> records = service.history()->Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_GT(records[0].blocks_read, 0);
    EXPECT_EQ(records[0].blocks_read, result->stats.exec.blocks_read);
    EXPECT_EQ(records[0].detail_rows_scanned, result->stats.exec.detail_rows_scanned);
    blocks_read.push_back(records[0].blocks_read);
  }
  EXPECT_EQ(blocks_read[0], blocks_read[1]);
  paged->reset();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Optimizer satellite: rewrite records

TEST(OptimizerStatsTest, DriverRecordsNoSplit) {
  Table sales = testutil::SmallSales();
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr inner = MdJoinPlan(base, TableRef("Sales"), {Sum(RCol("sale"), "t1")},
                             Eq(RCol("cust"), BCol("cust")));
  PlanPtr plan = MdJoinPlan(inner, TableRef("Sales"), {Count("n2")},
                            Eq(RCol("cust"), BCol("cust")));

  // Theorem 4.4 is not a driver rule: no record names it.
  std::vector<RewriteRecord> log;
  ASSERT_TRUE(OptimizePlan(plan, catalog, {}, nullptr, &log).ok());
  for (const RewriteRecord& r : log) {
    EXPECT_EQ(r.rule.find("Theorem 4.4"), std::string::npos) << r.rule;
  }
}

TEST(OptimizerStatsTest, RewriteRecordsCarryCosts) {
  Table sales = testutil::SmallSales();
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base = DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  // A selection on the base makes Observation 4.1's transfer fire.
  PlanPtr plan = MdJoinPlan(FilterPlan(base, Le(Col("cust"), Lit(3))), TableRef("Sales"),
                            {Count("n")}, Eq(RCol("cust"), BCol("cust")));
  std::vector<RewriteRecord> log;
  Result<PlanPtr> optimized = OptimizePlan(plan, catalog, {}, nullptr, &log);
  ASSERT_TRUE(optimized.ok());
  ASSERT_FALSE(log.empty());
  for (const RewriteRecord& r : log) {
    if (!r.accepted) continue;
    EXPECT_GT(r.cost_before, 0) << r.rule;
    EXPECT_GT(r.cost_after, 0) << r.rule;
    EXPECT_LE(r.cost_after, r.cost_before) << r.rule;
  }
}

// ---------------------------------------------------------------------------
// Metrics satellites: quantiles + build info

TEST(MetricsStatsTest, HistogramQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("stats_test_quantile_hist",
                                  {10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
                                  "quantile test");
  ASSERT_NE(h, nullptr);
  h->Reset();
  for (int64_t v = 1; v <= 100; ++v) h->Observe(v);
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name != "stats_test_quantile_hist") continue;
    // Uniform 1..100: interpolated quantiles land within one bucket width.
    EXPECT_NEAR(s.p50, 50, 10);
    EXPECT_NEAR(s.p90, 90, 10);
    EXPECT_NEAR(s.p99, 99, 10);
  }
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("stats_test_quantile_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stats_test_quantile_hist{quantile=\"0.99\"}"),
            std::string::npos);
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsStatsTest, BuildInfoInBothExpositions) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("mdjoin_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"mdjoin_build_info\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(std::string(BuildInfoGitSha()), "");
  EXPECT_NE(std::string(BuildInfoBuildType()), "");
}

}  // namespace
}  // namespace mdjoin
