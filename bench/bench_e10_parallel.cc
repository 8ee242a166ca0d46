/// E10 — §4.1.2 intra-operator parallelism. Two decompositions:
///   (a) Theorem 4.1 base split: m fragments of B, each scanning all of R
///       on a worker (total scan work m × |R|);
///   (b) detail split: R partitioned into morsels, per-worker partial
///       aggregate states merged via the UDAF Merge callback (one logical
///       scan) — MdJoin with options.num_threads workers;
/// plus BM_MorselSkew: the base-split plan under the morsel-driven schedule,
/// sweeping Zipf skew on the detail's cust/prod dimensions.
/// Note: a single-core host cannot show wall-clock speedup; the counters
/// report the scan-work trade and the dispatch counts.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using bench::CachedSales;

constexpr int64_t kRows = 100000;

void BM_SequentialBaseline(benchmark::State& state) {
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  for (auto _ : state) {
    Table out = *MdJoin(base, sales, aggs, theta);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_SequentialBaseline)->Unit(benchmark::kMillisecond);

void BM_BaseSplitParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *ParallelMdJoin(base, sales, aggs, theta, /*num_partitions=*/threads,
                                threads, {}, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kRows;
}
BENCHMARK(BM_BaseSplitParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DetailSplitParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Table& sales = CachedSales(kRows, 2000);
  Table base = *GroupByBase(sales, {"cust"});
  ExprPtr theta = Eq(RCol("cust"), BCol("cust"));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total")};
  MdJoinOptions options;
  options.num_threads = threads;
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *MdJoin(base, sales, aggs, theta, options, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kRows;
}
BENCHMARK(BM_DetailSplitParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Arg: zipf×10. 1M detail rows against a cust×prod cube base, 8 workers
/// over 8 Theorem 4.1 fragments under the morsel-driven schedule.
void BM_MorselSkew(benchmark::State& state) {
  const double zipf = static_cast<double>(state.range(0)) / 10.0;
  constexpr int64_t kSkewRows = 1000000;
  constexpr int kThreads = 8;
  const Table& sales = CachedSales(kSkewRows, /*customers=*/500, /*products=*/50,
                                   /*num_months=*/12, zipf);
  Table base = *CubeByBase(sales, {"cust", "prod"});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("prod"), BCol("prod")));
  std::vector<AggSpec> aggs = {Count("n"), Sum(RCol("sale"), "total"),
                               Min(RCol("sale"), "lo"), Max(RCol("sale"), "hi"),
                               Avg(RCol("sale"), "a")};
  MdJoinOptions options;
  MdJoinStats stats;
  for (auto _ : state) {
    Table out = *ParallelMdJoin(base, sales, aggs, theta, /*num_partitions=*/kThreads,
                                kThreads, options, &stats);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["zipf_theta"] = zipf;
  state.counters["base_rows"] = static_cast<double>(base.num_rows());
  state.counters["morsels"] = static_cast<double>(stats.morsels);
  state.counters["steal_waits"] = static_cast<double>(stats.steal_waits);
  state.counters["scan_work_multiplier"] =
      static_cast<double>(stats.detail_rows_scanned) / kSkewRows;
  bench::TagConfig(state, sales);
}
BENCHMARK(BM_MorselSkew)->Arg(0)->Arg(8)->Arg(11)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e10");
}
