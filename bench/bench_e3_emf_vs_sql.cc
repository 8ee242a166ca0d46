/// E3 — the §5 performance claim (headline experiment). Example 2.5: for
/// each (prod, month) of 1997, count sales between the previous month's and
/// the next month's average sale. The paper reports its MD-join/EMF
/// prototype an order of magnitude faster than a commercial DBMS executing
/// the multi-block SQL. We compare, on the same substrate:
///   (a) the MD-join plan: three chained MD-joins (X: prev avg, Y: next avg,
///       Z: the between-count), each an indexed single scan;
///   (b) the relational plan: per-(prod,month) averages via GROUP BY, two
///       self-joins to attach prev/next averages, σ, then COUNT GROUP BY,
///       outer-joined back to keep empty groups.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "ra/filter.h"
#include "ra/group_by.h"
#include "ra/join.h"
#include "table/table_ops.h"
#include "ra/project.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using bench::CachedSales;

constexpr int64_t kProducts = 100;

void BM_MdJoinPlan(benchmark::State& state) {
  const Table& raw = CachedSales(state.range(0), 1000, kProducts);
  Table sales = *Filter(raw, Eq(Col("year"), Lit(1997)));
  Table base = *GroupByBase(sales, {"prod", "month"});
  ExprPtr prod_eq = Eq(RCol("prod"), BCol("prod"));
  ExprPtr theta_x = And(prod_eq, Eq(RCol("month"), Sub(BCol("month"), Lit(1))));
  ExprPtr theta_y = And(prod_eq, Eq(RCol("month"), Add(BCol("month"), Lit(1))));
  for (auto _ : state) {
    Table step = *MdJoin(base, sales, {Avg(RCol("sale"), "prev_avg")}, theta_x);
    step = *MdJoin(step, sales, {Avg(RCol("sale"), "next_avg")}, theta_y);
    ExprPtr theta_z = And(prod_eq, Eq(RCol("month"), BCol("month")),
                          Gt(RCol("sale"), BCol("prev_avg")),
                          Lt(RCol("sale"), BCol("next_avg")));
    Table out = *MdJoin(step, sales, {Count("between_count")}, theta_z);
    benchmark::DoNotOptimize(out.num_rows());
  }
  state.counters["groups"] = static_cast<double>(base.num_rows());
}
BENCHMARK(BM_MdJoinPlan)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

void BM_RelationalPlan(benchmark::State& state) {
  const Table& raw = CachedSales(state.range(0), 1000, kProducts);
  Table sales = *Filter(raw, Eq(Col("year"), Lit(1997)));
  for (auto _ : state) {
    // Subquery A: per-(prod, month) averages.
    Table avgs = *GroupBy(sales, {"prod", "month"}, {Avg(Col("sale"), "a")});
    // Self-join 1: attach previous month's average to each sale row.
    Table prev_key = *Project(
        avgs.Clone(), {{Col("prod"), "prod"}, {Add(Col("month"), Lit(1)), "month"},
                       {Col("a"), "prev_avg"}});
    Table with_prev = *HashJoin(sales, prev_key, {"prod", "month"}, {"prod", "month"});
    // Self-join 2: attach next month's average.
    Table next_key = *Project(
        std::move(avgs), {{Col("prod"), "prod"}, {Sub(Col("month"), Lit(1)), "month"},
                          {Col("a"), "next_avg"}});
    Table with_both =
        *HashJoin(with_prev, next_key, {"prod", "month"}, {"prod", "month"});
    // σ: between the two averages; then the final GROUP BY count.
    Table qualified = *Filter(with_both, And(Gt(Col("sale"), Col("prev_avg")),
                                             Lt(Col("sale"), Col("next_avg"))));
    Table counts = *GroupBy(qualified, {"prod", "month"}, {Count("between_count")});
    // Outer join back onto all groups (empty groups must appear).
    Table base = *DistinctOn(sales, {"prod", "month"});
    Table out = *HashJoin(base, counts, {"prod", "month"}, {"prod", "month"},
                          JoinType::kLeftOuter);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_RelationalPlan)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdjoin

int main(int argc, char** argv) {
  return mdjoin::bench::RunBenchMain(argc, argv, "e3");
}
