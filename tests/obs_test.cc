/// Observability-layer coverage: the metrics registry (instrument semantics,
/// exposition, kind safety), the trace buffers and Chrome JSON writer, the
/// near-zero disabled-path contract (no allocations, enforced with a global
/// operator-new hook), concurrent registry/buffer hammering (run under TSan
/// via the tsan test label), and EXPLAIN ANALYZE profile round-trips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include <filesystem>

#include "analyze/binder.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "optimizer/executor.h"
#include "optimizer/optimize.h"
#include "optimizer/plan.h"
#include "storage/block_format.h"
#include "storage/out_of_core.h"
#include "storage/paged_table.h"
#include "table/table_ops.h"
#include "tests/test_util.h"
#include "workload/generators.h"

// ---------------------------------------------------------------------------
// Global allocation hook: counts heap allocations while armed. The disabled
// tracing / metrics hot paths promise zero allocation; this makes the promise
// a test failure instead of a comment.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// replacing only the throwing ones would pair a sanitizer-owned new with the
// free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracing::Stop(); }
  void TearDown() override { Tracing::Stop(); }
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST_F(ObsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_counter_total", "test counter");
  ASSERT_NE(c, nullptr);
  c->Reset();
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);
  // Same name returns the same stable instrument.
  EXPECT_EQ(reg.GetCounter("obs_test_counter_total"), c);

  Gauge* g = reg.GetGauge("obs_test_gauge", "test gauge");
  ASSERT_NE(g, nullptr);
  g->Reset();
  g->Set(7);
  g->Add(3);
  EXPECT_EQ(g->value(), 10);
  g->UpdateMax(5);  // below current: no change
  EXPECT_EQ(g->value(), 10);
  g->UpdateMax(99);
  EXPECT_EQ(g->value(), 99);

  Histogram* h = reg.GetHistogram("obs_test_hist", {10, 100, 1000}, "test histogram");
  ASSERT_NE(h, nullptr);
  h->Reset();
  h->Observe(5);     // bucket le=10
  h->Observe(50);    // bucket le=100
  h->Observe(5000);  // overflow bucket
  EXPECT_EQ(h->total_count(), 3);
  EXPECT_EQ(h->sum(), 5055);
  EXPECT_EQ(h->bucket_count(0), 1);
  EXPECT_EQ(h->bucket_count(1), 1);
  EXPECT_EQ(h->bucket_count(2), 0);
  EXPECT_EQ(h->bucket_count(3), 1);  // overflow
}

TEST_F(ObsTest, KindMismatchReturnsNull) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ASSERT_NE(reg.GetCounter("obs_test_kinded_total"), nullptr);
  EXPECT_EQ(reg.GetGauge("obs_test_kinded_total"), nullptr);
  EXPECT_EQ(reg.GetHistogram("obs_test_kinded_total", {1}), nullptr);
}

TEST_F(ObsTest, SnapshotAndExposition) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_expo_total", "exposition counter");
  c->Reset();
  c->Increment(5);
  Histogram* h = reg.GetHistogram("obs_test_expo_hist", {10}, "exposition histogram");
  h->Reset();
  h->Observe(3);

  bool saw_counter = false;
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == "obs_test_expo_total") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 5);
      EXPECT_EQ(s.help, "exposition counter");
    }
  }
  EXPECT_TRUE(saw_counter);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE obs_test_expo_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_total 5"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_hist_bucket"), std::string::npos);

  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"obs_test_expo_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_expo_hist\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing

TEST_F(ObsTest, SpansAndInstantsRoundTrip) {
  Tracing::Start();
  ASSERT_TRUE(Tracing::enabled());
  {
    Span outer("outer", "test");
    outer.SetArg("a", 1);
    outer.SetArg("b", 2);
    outer.SetArg("dropped", 3);  // only two args travel
    Span inner("inner", "test");
    TraceInstant("ping", "test", "x", 7);
  }
  Tracing::Stop();

  std::vector<TraceEvent> events = Tracing::Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Snapshot is sorted by start timestamp: outer, inner, ping — but inner
  // and ping may share a coarse clock tick, so assert membership instead.
  bool saw_outer = false, saw_inner = false, saw_ping = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer") {
      saw_outer = true;
      EXPECT_GE(e.dur_ns, 0);
      EXPECT_STREQ(e.arg1_name, "a");
      EXPECT_EQ(e.arg1, 1);
      EXPECT_STREQ(e.arg2_name, "b");
      EXPECT_EQ(e.arg2, 2);
    } else if (std::string(e.name) == "inner") {
      saw_inner = true;
      EXPECT_GE(e.dur_ns, 0);
    } else if (std::string(e.name) == "ping") {
      saw_ping = true;
      EXPECT_LT(e.dur_ns, 0);  // instant
      EXPECT_EQ(e.arg1, 7);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_ping);

  // A restart clears the buffers.
  Tracing::Start();
  Tracing::Stop();
  EXPECT_EQ(Tracing::event_count(), 0);
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  Tracing::Start();
  Tracing::SetThreadName("obs test thread");
  {
    Span s("span_event", "test");
    s.SetArg("rows", 123);
  }
  TraceInstant("instant_event", "test");
  std::thread t([] {
    Tracing::SetThreadName("second thread");
    Span s("other_track", "test");
  });
  t.join();
  Tracing::Stop();

  std::vector<TraceEvent> events = Tracing::Snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::set<int32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 2u);  // distinct per-thread tracks

  std::string json = ChromeTraceWriter::ToJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obs test thread"), std::string::npos);
  EXPECT_NE(json.find("second thread"), std::string::npos);
  EXPECT_NE(json.find("span_event"), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 123"), std::string::npos);
}

TEST_F(ObsTest, DisabledTracingAllocatesNothing) {
  // Start+Stop clears buffers left over from earlier tests (Stop alone keeps
  // events available to Snapshot), so event_count below measures this test.
  Tracing::Start();
  Tracing::Stop();
  ASSERT_FALSE(Tracing::enabled());
  // Warm the metric instruments so the armed window sees only hot-path work.
  Counter* c = MetricsRegistry::Global().GetCounter("obs_test_hot_total");
  Histogram* h = MetricsRegistry::Global().GetHistogram("obs_test_hot_hist", {10, 100});

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    Span span("hot", "test");
    span.SetArg("i", i);
    TraceInstant("hot_instant", "test");
    c->Increment();
    h->Observe(i);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "disabled spans / metric increments must not allocate";
  EXPECT_EQ(Tracing::event_count(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency (meaningful under the tsan test label)

TEST_F(ObsTest, ConcurrentRegistryAccess) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_conc_total")->Reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        // Registration races with increments and with exposition.
        reg.GetCounter("obs_test_conc_total")->Increment();
        if (i % 512 == 0) reg.Snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("obs_test_conc_total")->value(), kThreads * kIters);
}

TEST_F(ObsTest, ConcurrentSpanBuffers) {
  Tracing::Start();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      Tracing::SetThreadName("conc");
      for (int i = 0; i < kIters; ++i) {
        Span span("conc_span", "test");
        span.SetArg("i", i);
        if (i % 128 == 0) Tracing::Snapshot();  // reader races the writers
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracing::Stop();
  EXPECT_EQ(Tracing::event_count(), kThreads * kIters);
  std::set<int32_t> tids;
  for (const TraceEvent& e : Tracing::Snapshot()) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE profiles

TEST_F(ObsTest, ExplainAnalyzeRecordsCountersAndJson) {
  Table sales = testutil::RandomSales(7, 500);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));

  QueryProfile profile;
  profile.rewrites.push_back(
      {"test rule", "MdJoin", true, 100.0, 80.0, "accepted: test"});
  Result<Table> result = ExplainAnalyze(plan, catalog, {}, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(profile.root, nullptr);
  EXPECT_TRUE(profile.complete);
  EXPECT_EQ(profile.terminal, "ok");
  EXPECT_GT(profile.total_ms, 0);
  EXPECT_TRUE(profile.root->is_mdjoin);
  EXPECT_EQ(profile.root->output_rows, result->num_rows());
  EXPECT_GT(profile.root->detail_rows_scanned, 0);
  EXPECT_GT(profile.root->agg_updates, 0);
  EXPECT_GE(profile.root->selectivity(), 0);
  // The pre-seeded rewrite log survives execution.
  ASSERT_EQ(profile.rewrites.size(), 1u);

  std::string text = profile.ToText();
  EXPECT_NE(text.find("MdJoin"), std::string::npos);
  EXPECT_NE(text.find("sel="), std::string::npos);
  EXPECT_NE(text.find("[applied] test rule"), std::string::npos);
  EXPECT_NE(text.find("terminal: ok"), std::string::npos);

  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"terminal\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
  EXPECT_NE(json.find("\"detail_rows_scanned\""), std::string::npos);
  EXPECT_NE(json.find("\"rewrites\": [{\"rule\": \"test rule\""), std::string::npos);
}

TEST_F(ObsTest, ExplainAnalyzeEmitsWorkerTracks) {
  Table sales = testutil::RandomSales(11, 4000);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr base =
      DistinctPlan(ProjectPlan(TableRef("Sales"), {{Col("cust"), "cust"}}));
  PlanPtr plan = MdJoinPlan(base, TableRef("Sales"), {Count("n")},
                            Eq(RCol("cust"), BCol("cust")));

  MdJoinOptions options;
  options.num_threads = 2;
  QueryProfile profile;
  Tracing::Start();
  Result<Table> result = ExplainAnalyze(plan, catalog, options, &profile);
  Tracing::Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(profile.root->morsels, 1);
  EXPECT_EQ(profile.root->num_threads, 2);

  bool saw_morsel = false, saw_steal = false;
  std::set<int32_t> morsel_tids;
  for (const TraceEvent& e : Tracing::Snapshot()) {
    if (std::string(e.name) == "morsel") {
      saw_morsel = true;
      morsel_tids.insert(e.tid);
    }
    if (std::string(e.name) == "steal_wait") saw_steal = true;
  }
  EXPECT_TRUE(saw_morsel);
  EXPECT_TRUE(saw_steal);
  EXPECT_GE(morsel_tids.size(), 1u);
}

/// Each matched pair updates only its own component's aggregates: the
/// Example 2.2 pivot (three components of one aggregate each) and the
/// Example 2.5 chain's fused node (two of one each) must report exactly one
/// aggregate update per matched pair, not one per aggregate of every
/// component.
TEST_F(ObsTest, GeneralizedNodeCountsUpdatesPerComponent) {
  Table sales = testutil::RandomSales(13, 1500, /*num_cust=*/20);
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  const char* texts[] = {
      "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct "
      "from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "Y: Y.cust = cust and Y.state = 'NJ', "
      "Z: Z.cust = cust and Z.state = 'CT'",
      "select prod, month, count(Z.sale) as between_count "
      "from Sales where year = 1997 analyze by group(prod, month) "
      "such that X: X.prod = prod and X.month = month - 1, "
      "Y: Y.prod = prod and Y.month = month + 1, "
      "Z: Z.prod = prod and Z.month = month "
      "and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)"};
  for (const char* text : texts) {
    Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, catalog);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    Result<PlanPtr> plan = OptimizePlan(bound->plan, catalog);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    QueryProfile profile;
    ASSERT_TRUE(ExplainAnalyze(*plan, catalog, {}, &profile).ok());
    const OperatorProfile* gmd = nullptr;
    std::function<void(const OperatorProfile&)> find = [&](const OperatorProfile& n) {
      if (n.label.rfind("GeneralizedMdJoin", 0) == 0) gmd = &n;
      for (const auto& child : n.children) find(*child);
    };
    find(*profile.root);
    ASSERT_NE(gmd, nullptr) << profile.ToText();
    EXPECT_GT(gmd->matched_pairs, 0) << profile.ToText();
    EXPECT_EQ(gmd->agg_updates, gmd->matched_pairs) << profile.ToText();
  }
}

/// Every node of the profile, depth first.
void Nodes(const OperatorProfile& node, std::vector<const OperatorProfile*>* out) {
  out->push_back(&node);
  for (const auto& child : node.children) Nodes(*child, out);
}

/// A block file of `t` in `block_rows`-row blocks, removed on destruction.
class BlockFileOf {
 public:
  BlockFileOf(const Table& t, int64_t block_rows) {
    path_ = (std::filesystem::temp_directory_path() /
             ("mdjoin_obs_" + std::to_string(reinterpret_cast<uintptr_t>(this)) + ".mdjb"))
                .string();
    BlockFileOptions options;
    options.block_size_rows = block_rows;
    MDJ_CHECK(WriteBlockFile(t, path_, options).ok());
    table_ = std::move(*PagedTable::Open(path_));
  }
  ~BlockFileOf() {
    table_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const PagedTable& table() const { return *table_; }

 private:
  std::string path_;
  std::unique_ptr<PagedTable> table_;
};

Result<QueryProfile> ProfileText(const std::string& text, const Catalog& catalog,
                                 const MdJoinOptions& options) {
  MDJ_ASSIGN_OR_RETURN(analyze::BoundQuery bound, analyze::BindQueryString(text, catalog));
  MDJ_ASSIGN_OR_RETURN(PlanPtr plan, OptimizePlan(bound.plan, catalog));
  QueryProfile profile;
  MDJ_RETURN_NOT_OK(ExplainAnalyze(plan, catalog, options, &profile).status());
  return profile;
}

const char* kCube3 =
    "select prod, month, state, sum(sale) from Sales analyze by cube(prod, month, state)";

/// The olapbench rotation (docs/QUERY_LANGUAGE.md): cube3, cube2, pivot and
/// chain.
const std::vector<std::string>& RotationTexts() {
  static const std::vector<std::string> texts = {
      kCube3,
      "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
      "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct "
      "from Sales analyze by group(cust) "
      "such that X: X.cust = cust and X.state = 'NY', "
      "Y: Y.cust = cust and Y.state = 'NJ', "
      "Z: Z.cust = cust and Z.state = 'CT'",
      "select prod, month, count(Z.sale) as between_count "
      "from Sales where year = 1997 analyze by group(prod, month) "
      "such that X: X.prod = prod and X.month = month - 1, "
      "Y: Y.prod = prod and Y.month = month + 1, "
      "Z: Z.prod = prod and Z.month = month "
      "and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale) "
      "order by prod, month",
  };
  return texts;
}

/// The MD-join of the cube3 text records how it found relative sets — by
/// group id, on memory and on paged storage, and through the index with the
/// guard's reason when the map does not fit — and its phase times, which are
/// non-negative and add up to no more than the operator's wall time.
TEST_F(ObsTest, ExplainAnalyzeRecordsRouteAndPhases) {
  Table sales = testutil::RandomSales(17, 3000);
  const BlockFileOf file(sales, 256);
  for (const char* storage : {"memory", "paged"}) {
    Catalog catalog;
    if (std::string(storage) == "memory") {
      ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
    } else {
      ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", file.table()).ok());
    }
    for (const bool tight : {false, true}) {
      SCOPED_TRACE(::testing::Message() << storage << (tight ? ", tight guard" : ""));
      QueryGuardOptions guard_options;
      if (tight) guard_options.memory_budget_bytes = 1;
      QueryGuard guard(guard_options);
      MdJoinOptions options;
      options.guard = &guard;
      Result<QueryProfile> profile = ProfileText(kCube3, catalog, options);
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      std::vector<const OperatorProfile*> nodes;
      Nodes(*profile->root, &nodes);
      const OperatorProfile* md = nullptr;
      for (const OperatorProfile* n : nodes) {
        if (n->is_mdjoin) md = n;
      }
      ASSERT_NE(md, nullptr);
      const std::string text = profile->ToText();
      if (tight) {
        EXPECT_EQ(md->route, "index");
        EXPECT_EQ(md->route_reason, "the map does not fit the guard's headroom");
        EXPECT_NE(text.find("route=index (the map does not fit the guard's headroom)"),
                  std::string::npos)
            << text;
      } else {
        EXPECT_EQ(md->route, "group_ids");
        EXPECT_EQ(md->route_reason, "");
        EXPECT_NE(text.find("route=group_ids phases: setup="), std::string::npos) << text;
      }
      for (double phase : {md->setup_ms, md->scan_ms, md->merge_ms, md->finalize_ms}) {
        EXPECT_GE(phase, 0);
      }
      EXPECT_GT(md->scan_ms, 0);
      EXPECT_LE(md->setup_ms + md->scan_ms + md->merge_ms + md->finalize_ms, md->elapsed_ms);
      EXPECT_NE(profile->ToJson().find("\"route\": \"" + md->route + "\""),
                std::string::npos);
    }
  }

  // group(...) is the finest cuboid of R, so its join reads group ids; a
  // join the certificate refuses says why: chain's X/Y pair matches
  // month ± 1, not the plain dimension equality, and its Z join's base is
  // the X/Y join's output, not a generator.
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  Result<QueryProfile> group = ProfileText(
      "select cust, sum(sale) from Sales analyze by group(cust)", catalog, {});
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  std::vector<const OperatorProfile*> nodes;
  Nodes(*group->root, &nodes);
  for (const OperatorProfile* n : nodes) {
    if (!n->is_mdjoin) continue;
    EXPECT_EQ(n->route, "group_ids");
    EXPECT_EQ(n->route_reason, "");
  }
  Result<QueryProfile> chain = ProfileText(RotationTexts()[3], catalog, {});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  nodes.clear();
  Nodes(*chain->root, &nodes);
  std::set<std::string> reasons;
  for (const OperatorProfile* n : nodes) {
    if (!n->is_mdjoin) continue;
    EXPECT_EQ(n->route, "index");
    reasons.insert(n->route_reason);
  }
  EXPECT_EQ(reasons, (std::set<std::string>{
                         "equi conjunct is not a plain B.d = R.d dimension pair",
                         "base child is not a cube, rollup, grouping-sets or unpivot "
                         "generator"}))
      << chain->ToText();
  EXPECT_NE(chain->ToText().find("(equi conjunct is not a plain B.d = R.d dimension pair)"),
            std::string::npos);
}

/// Every block decode counts in mdjoin_blocks_read_total and
/// mdjoin_blocks_faulted_total and shows on the operator that read it: a
/// whole-file ReadAll, and the cube generator's and the MD-join's streamed
/// passes, which make no ReadAll at all. Under `where` the selection folds
/// into θ and the generator's kernels, so no Filter over a TableRef reads
/// the file either.
TEST_F(ObsTest, BlockCountersMatchDecodes) {
  Table sales = testutil::RandomSales(19, 2000);
  const BlockFileOf file(sales, 256);
  const int64_t nblocks = file.table().num_blocks();
  Counter* read = MetricsRegistry::Global().GetCounter("mdjoin_blocks_read_total");
  Counter* faulted = MetricsRegistry::Global().GetCounter("mdjoin_blocks_faulted_total");

  int64_t read0 = read->value(), faulted0 = faulted->value();
  ASSERT_TRUE(file.table().ReadAll(nullptr).ok());
  EXPECT_EQ(read->value() - read0, nblocks);
  EXPECT_EQ(faulted->value() - faulted0, nblocks);

  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", file.table()).ok());
  for (const std::string& where : {std::string(""), std::string(" where year > 1996")}) {
    SCOPED_TRACE(where);
    const std::string text =
        "select prod, month, state, sum(sale) from Sales" + where +
        " analyze by cube(prod, month, state)";
    read0 = read->value();
    faulted0 = faulted->value();
    Result<QueryProfile> profile = ProfileText(text, catalog, {});  // no block cache
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    std::vector<const OperatorProfile*> nodes;
    Nodes(*profile->root, &nodes);
    int64_t profiled = 0, table_refs = 0, readers = 0;
    for (const OperatorProfile* n : nodes) {
      EXPECT_EQ(n->blocks_faulted, n->blocks_read) << n->label;  // uncached
      profiled += n->blocks_read;
      if (n->label.rfind("TableRef", 0) == 0) ++table_refs;
      if (n->label.rfind("CubeBase", 0) == 0 || n->is_mdjoin) {
        ++readers;
        EXPECT_EQ(n->blocks_read + n->blocks_pruned, nblocks) << n->label;
        EXPECT_EQ(n->read, "blocks") << n->label;
        EXPECT_EQ(n->folded, where.empty() ? "" : "(R.year > 1996)") << n->label;
      }
    }
    EXPECT_EQ(readers, 2) << profile->ToText();
    EXPECT_EQ(table_refs, 0) << profile->ToText();
    EXPECT_EQ(read->value() - read0, profiled);
    EXPECT_EQ(faulted->value() - faulted0, profiled);
    EXPECT_NE(profile->ToText().find("blocks_read="), std::string::npos);
    EXPECT_NE(profile->ToText().find(" read=blocks"), std::string::npos);
    EXPECT_NE(profile->ToJson().find("\"read\": \"blocks\""), std::string::npos);
  }
}

/// On paged storage each node that reads R decodes only the columns it
/// names: a generator its dimensions and its `where` columns, a join those
/// of its θs (the folded `where` included) and of its aggregate arguments.
/// EXPLAIN ANALYZE prints the set beside read=blocks in text and JSON, and
/// mdjoin_column_chunks_decoded_total grows by each reading node's blocks
/// faulted times its column count, with a block cache and without one.
TEST_F(ObsTest, PagedReadsDecodeTheColumnsEachNodeNames) {
  Table sales = testutil::RandomSales(29, 3000);
  const BlockFileOf file(sales, 256);
  Catalog catalog;
  ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", file.table()).ok());
  Counter* chunks = MetricsRegistry::Global().GetCounter("mdjoin_column_chunks_decoded_total");
  using Cols = std::vector<std::string>;
  // Per rotation text, the reading nodes in profile pre-order.
  const std::vector<std::vector<Cols>> expected = {
      {{"prod", "month", "state", "sale"}, {"prod", "month", "state"}},
      {{"prod", "month", "sale"}, {"prod", "month"}},
      {{"cust", "state", "sale"}, {"cust"}},
      {{"prod", "month", "year", "sale"},
       {"prod", "month", "year", "sale"},
       {"prod", "month", "year"}},
  };
  BlockCache::Options cache_options;
  cache_options.capacity_bytes = 4 * file.table().ApproxBlockBytes(0);
  BlockCache cache(cache_options);
  for (BlockCache* c : {static_cast<BlockCache*>(nullptr), &cache}) {
    for (size_t q = 0; q < RotationTexts().size(); ++q) {
      SCOPED_TRACE(::testing::Message() << "cache=" << (c != nullptr) << " " << RotationTexts()[q]);
      MdJoinOptions options;
      options.block_cache = c;
      const int64_t chunks0 = chunks->value();
      Result<QueryProfile> profile = ProfileText(RotationTexts()[q], catalog, options);
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      std::vector<const OperatorProfile*> nodes;
      Nodes(*profile->root, &nodes);
      std::vector<Cols> got;
      int64_t decoded = 0;
      for (const OperatorProfile* n : nodes) {
        if (n->read.empty()) continue;
        EXPECT_EQ(n->read, "blocks") << n->label;
        got.push_back(n->columns);
        decoded += n->blocks_faulted * static_cast<int64_t>(n->columns.size());
      }
      EXPECT_EQ(got, expected[q]) << profile->ToText();
      EXPECT_EQ(chunks->value() - chunks0, decoded);
      const std::string text = profile->ToText();
      const std::string json = profile->ToJson();
      for (const Cols& cols : expected[q]) {
        std::string text_pin = " read=blocks cols=", json_pin = "\"cols\": [";
        for (size_t i = 0; i < cols.size(); ++i) {
          text_pin += (i > 0 ? "," : "") + cols[i];
          json_pin += (i > 0 ? ", \"" : "\"") + cols[i] + "\"";
        }
        EXPECT_NE(text.find(text_pin + " "), std::string::npos) << text_pin << "\n" << text;
        EXPECT_NE(json.find(json_pin + "]"), std::string::npos) << json_pin << "\n" << json;
      }
    }
  }
}

/// An in-memory R prunes its kMorselRows-row morsels as a paged R prunes
/// blocks, and EXPLAIN ANALYZE says so on the node that read it: over a
/// year-sorted Sales, `where year = 1997` lets the generator and the MD-join
/// skip exactly the morsels that hold no 1997 row (text and JSON). Over
/// uniform Sales, whose every morsel holds every year, month and state, no
/// node of the four rotation texts prunes one.
TEST_F(ObsTest, InMemoryMorselPruningShowsOnTheReadingNodes) {
  SalesConfig config;
  config.num_rows = 24 * kMorselRows;
  config.num_customers = 50;
  config.num_products = 20;
  const Table uniform = GenerateSales(config);
  const Table by_year = *SortTableBy(uniform, {"year"});
  const int year_col = *by_year.schema().GetFieldIndex("year");
  int64_t without_1997 = 0;
  for (int64_t lo = 0; lo < by_year.num_rows(); lo += kMorselRows) {
    bool holds = false;
    for (int64_t r = lo; r < std::min(lo + kMorselRows, by_year.num_rows()); ++r) {
      holds = holds || by_year.Get(r, year_col).int64() == 1997;
    }
    without_1997 += holds ? 0 : 1;
  }
  ASSERT_GT(without_1997, 0);

  Catalog sorted;
  ASSERT_TRUE(sorted.Register("Sales", &by_year).ok());
  Result<QueryProfile> profile = ProfileText(
      "select prod, month, sum(sale) as total from Sales where year = 1997 "
      "analyze by group(prod, month)",
      sorted, {});
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::vector<const OperatorProfile*> nodes;
  Nodes(*profile->root, &nodes);
  int readers = 0;
  for (const OperatorProfile* n : nodes) {
    if (n->read.empty()) continue;
    ++readers;
    EXPECT_EQ(n->read, "in_place") << n->label;
    EXPECT_EQ(n->blocks_pruned, without_1997) << n->label;
    EXPECT_EQ(n->blocks_read, 0) << n->label;
  }
  EXPECT_EQ(readers, 2) << profile->ToText();  // the generator and the join
  const std::string text = profile->ToText();
  const std::string json = profile->ToJson();
  const std::string text_pin =
      " blocks_read=0 pruned=" + std::to_string(without_1997) + " faulted=0";
  const std::string json_pin = "\"blocks_pruned\": " + std::to_string(without_1997);
  for (const auto& [haystack, needle] : {std::pair{text, text_pin}, {json, json_pin}}) {
    const size_t first = haystack.find(needle);
    ASSERT_NE(first, std::string::npos) << haystack;
    EXPECT_NE(haystack.find(needle, first + 1), std::string::npos) << haystack;
  }

  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &uniform).ok());
  for (const std::string& rotation : RotationTexts()) {
    SCOPED_TRACE(rotation);
    Result<QueryProfile> p = ProfileText(rotation, catalog, {});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    nodes.clear();
    Nodes(*p->root, &nodes);
    for (const OperatorProfile* n : nodes) EXPECT_EQ(n->blocks_pruned, 0) << n->label;
    EXPECT_EQ(p->ToText().find(" pruned="), std::string::npos);
    EXPECT_NE(p->ToJson().find("\"blocks_pruned\": 0"), std::string::npos);
  }
}

/// R is read where it lives: every rotation text and every drill-down shape
/// of the service workload copies no catalog table (ExecStats::
/// tables_materialized, and no TableRef in the profile) under ExecutePlan,
/// ExecutePlanCse and ExplainAnalyze. Each MD-join and generator reads the
/// catalog's table `in_place` in memory and as `blocks` on paged storage; a
/// detail child that is not a catalog reference is `materialized`.
TEST_F(ObsTest, MdJoinsAndGeneratorsReadRWhereItLives) {
  Table sales = testutil::RandomSales(23, 3000);
  const BlockFileOf file(sales, 256);
  std::vector<std::string> texts = RotationTexts();
  const std::vector<std::string> dims = {"prod", "month", "state"};
  for (const std::string& where : {std::string(""), std::string(" where year = 1997")}) {
    for (unsigned mask = 1; mask < 8; ++mask) {
      std::string list;
      for (size_t i = 0; i < dims.size(); ++i) {
        if (mask & (1u << i)) list += (list.empty() ? "" : ", ") + dims[i];
      }
      texts.push_back("select " + list + ", sum(sale) as total, count(*) as n from Sales" +
                      where + " analyze by group(" + list + ")");
    }
    for (const char* sets : {"(prod, month), (prod, state), (month, state)",
                             "(prod), (month), (state)"}) {
      texts.push_back(
          "select prod, month, state, sum(sale) as total, count(*) as n from Sales" + where +
          " analyze by grouping_sets(" + std::string(sets) + ")");
    }
  }
  for (const char* storage : {"in_place", "blocks"}) {
    Catalog catalog;
    if (std::string(storage) == "in_place") {
      ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
    } else {
      ASSERT_TRUE(RegisterPagedTable(&catalog, "Sales", file.table()).ok());
    }
    for (const std::string& text : texts) {
      SCOPED_TRACE(::testing::Message() << storage << ": " << text);
      Result<analyze::BoundQuery> bound = analyze::BindQueryString(text, catalog);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      Result<PlanPtr> plan = OptimizePlan(bound->plan, catalog);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      ExecStats plain_stats, cse_stats;
      Result<Table> plain = ExecutePlan(*plan, catalog, {}, &plain_stats);
      Result<Table> cse = ExecutePlanCse(*plan, catalog, {}, &cse_stats);
      QueryProfile profile;
      Result<Table> profiled = ExplainAnalyze(*plan, catalog, {}, &profile);
      ASSERT_TRUE(plain.ok() && cse.ok() && profiled.ok());
      EXPECT_TRUE(testutil::TablesBitIdentical(*plain, *cse));
      EXPECT_TRUE(testutil::TablesBitIdentical(*plain, *profiled));
      EXPECT_EQ(plain_stats.tables_materialized, 0);
      EXPECT_EQ(cse_stats.tables_materialized, 0);
      std::vector<const OperatorProfile*> nodes;
      Nodes(*profile.root, &nodes);
      int readers = 0;
      for (const OperatorProfile* n : nodes) {
        EXPECT_NE(n->label.rfind("TableRef", 0), 0u) << profile.ToText();
        if (!n->read.empty()) ++readers;
        if (n->is_mdjoin || n->label.rfind("CuboidBase", 0) == 0 ||
            n->label.rfind("CubeBase", 0) == 0) {
          EXPECT_EQ(n->read, storage) << n->label;
        }
      }
      EXPECT_GE(readers, 2) << profile.ToText();  // a generator and a join
    }
  }

  // A detail child that is not a catalog reference runs, once.
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", &sales).ok());
  PlanPtr plan = MdJoinPlan(CuboidBasePlan(TableRef("Sales"), {"cust"}, 1),
                            PartitionPlan(TableRef("Sales"), 0, 2), {Count("n")},
                            Eq(BCol("cust"), RCol("cust")));
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(plan, catalog, {}, &stats).ok());
  EXPECT_EQ(stats.tables_materialized, 1);
  QueryProfile profile;
  ASSERT_TRUE(ExplainAnalyze(plan, catalog, {}, &profile).ok());
  EXPECT_EQ(profile.root->read, "materialized");
  EXPECT_EQ(profile.root->children.back()->label, "Partition(0/2)");
  EXPECT_NE(profile.ToText().find(" read=materialized"), std::string::npos);
}

}  // namespace
}  // namespace mdjoin
