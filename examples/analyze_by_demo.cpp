/// The §5 query language: ANALYZE BY decouples the base-values generator
/// from the aggregation, and SUCH THAT grouping variables give fine-grained
/// control over what each aggregate ranges over (EMF-SQL style, [Cha99]).
/// Runs the paper's Example 5.1 queries plus an Example 2.5-shaped window
/// query with dependent grouping variables.

#include <cstdio>

#include "mdjoin/mdjoin.h"

using namespace mdjoin;  // NOLINT

namespace {

int RunQuery(const Catalog& catalog, const char* title, const std::string& sql) {
  std::printf("=== %s ===\n%s\n", title, sql.c_str());
  Result<analyze::BoundQuery> bound = analyze::BindQueryString(sql, catalog);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind error: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("plan:\n%s", ExplainPlan(bound->plan).c_str());
  Result<Table> result = ExecutePlan(bound->plan, catalog);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("result (%lld rows, head):\n%s\n",
              static_cast<long long>(result->num_rows()),
              result->ToString(8).c_str());
  return 0;
}

}  // namespace

int main() {
  SalesConfig config;
  config.num_rows = 10000;
  config.num_customers = 50;
  config.num_products = 6;
  config.num_months = 6;
  config.num_states = 4;
  Table sales = GenerateSales(config);

  // Example 2.4's precomputed interesting points.
  TableBuilder points({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  points.AppendRowOrDie({Value::Int64(1), Value::Int64(2)});
  points.AppendRowOrDie({Value::Int64(3), Value::All()});
  points.AppendRowOrDie({Value::All(), Value::All()});
  Table t = std::move(points).Finish();

  Catalog catalog;
  if (!catalog.Register("Sales", &sales).ok()) return 1;
  if (!catalog.Register("T", &t).ok()) return 1;

  int rc = 0;
  // Example 5.1, cube form.
  rc |= RunQuery(catalog, "Example 5.1 — cube",
                 "select prod, month, sum(sale) from Sales "
                 "analyze by cube(prod, month)");
  // Example 5.1, unpivot form (same aggregation, different base generator).
  rc |= RunQuery(catalog, "Example 5.1 — unpivot",
                 "select prod, month, sum(sale) from Sales "
                 "analyze by unpivot(prod, month)");
  // Example 5.1, table-driven form (Example 2.4).
  rc |= RunQuery(catalog, "Example 5.1 — table-driven base values",
                 "select prod, month, sum(sale) from Sales "
                 "analyze by T(prod, month)");
  // Grouping variables: the tri-state pivot of Example 2.2.
  rc |= RunQuery(catalog, "Example 2.2 — grouping variables",
                 "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, "
                 "avg(Z.sale) as avg_ct from Sales analyze by group(cust) "
                 "such that X: X.cust = cust and X.state = 'NY', "
                 "Y: Y.cust = cust and Y.state = 'NJ', "
                 "Z: Z.cust = cust and Z.state = 'CT'");
  // Example 2.5's dependent multi-pass window query.
  rc |= RunQuery(catalog, "Example 2.5 — between prev/next month averages",
                 "select prod, month, count(Z.sale) as between_count from Sales "
                 "where year = 1997 analyze by group(prod, month) "
                 "such that X: X.prod = prod and X.month = month - 1, "
                 "Y: Y.prod = prod and Y.month = month + 1, "
                 "Z: Z.prod = prod and Z.month = month and "
                 "Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)");
  return rc;
}
