#ifndef MDJOIN_TESTS_TEST_UTIL_H_
#define MDJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "table/table_builder.h"

namespace mdjoin {
namespace testutil {

inline Value I(int64_t v) { return Value::Int64(v); }
inline Value F(double v) { return Value::Float64(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value ALL() { return Value::All(); }
inline Value NUL() { return Value::Null(); }

/// Bit-exact cell comparison: same variant, and doubles compared by bit
/// pattern so NaN payloads and -0.0 vs 0.0 count as differences.
inline bool BitEq(const Value& a, const Value& b) {
  if (a.is_null()) return b.is_null();
  if (a.is_all()) return b.is_all();
  if (a.is_int64()) return b.is_int64() && a.int64() == b.int64();
  if (a.is_float64()) {
    if (!b.is_float64()) return false;
    uint64_t ba, bb;
    const double da = a.float64(), db = b.float64();
    std::memcpy(&ba, &da, sizeof(ba));
    std::memcpy(&bb, &db, sizeof(bb));
    return ba == bb;
  }
  return b.is_string() && a.string() == b.string();
}

/// Row-for-row, cell-for-cell BitEq; names the first differing cell.
inline ::testing::AssertionResult TablesBitIdentical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs " << b.num_rows();
  }
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure() << "column counts differ";
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (!BitEq(a.Get(r, c), b.Get(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << ") differs: "
               << a.Get(r, c).ToString() << " vs " << b.Get(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The paper's running-example Sales table:
/// (cust, prod, day, month, year, state, sale).
inline Schema SalesSchema() {
  return Schema({{"cust", DataType::kInt64},
                 {"prod", DataType::kInt64},
                 {"day", DataType::kInt64},
                 {"month", DataType::kInt64},
                 {"year", DataType::kInt64},
                 {"state", DataType::kString},
                 {"sale", DataType::kFloat64}});
}

/// A small deterministic Sales instance exercised by most integration tests:
/// customers 1..4, products 10/20, months 1..3, years 1997/1999, states
/// NY/NJ/CT/CA.
inline Table SmallSales() {
  TableBuilder b(SalesSchema());
  auto add = [&b](int64_t cust, int64_t prod, int64_t day, int64_t month, int64_t year,
                  const char* state, double sale) {
    b.AppendRowOrDie({I(cust), I(prod), I(day), I(month), I(year), S(state), F(sale)});
  };
  add(1, 10, 1, 1, 1997, "NY", 100);
  add(1, 10, 2, 1, 1997, "NY", 200);
  add(1, 20, 3, 2, 1997, "NJ", 50);
  add(1, 20, 4, 3, 1997, "CT", 70);
  add(2, 10, 5, 1, 1997, "NJ", 400);
  add(2, 20, 6, 2, 1997, "CA", 150);
  add(2, 20, 7, 2, 1997, "NY", 60);
  add(3, 10, 8, 3, 1997, "CT", 90);
  add(3, 20, 9, 3, 1999, "NY", 300);
  add(4, 10, 10, 1, 1999, "CA", 500);
  add(4, 20, 11, 2, 1999, "CA", 20);
  add(4, 10, 12, 3, 1997, "NJ", 80);
  return std::move(b).Finish();
}

/// Random Sales-like table for property tests. Seeded: reproducible.
inline Table RandomSales(uint64_t seed, int64_t rows, int64_t num_cust = 6,
                         int64_t num_prod = 4, int64_t num_month = 4) {
  Random rng(seed);
  const char* states[] = {"NY", "NJ", "CT", "CA", "IL"};
  TableBuilder b(SalesSchema());
  for (int64_t i = 0; i < rows; ++i) {
    b.AppendRowOrDie({I(rng.UniformInt(1, num_cust)), I(rng.UniformInt(1, num_prod) * 10),
                      I(rng.UniformInt(1, 28)), I(rng.UniformInt(1, num_month)),
                      I(rng.UniformInt(1996, 1999)),
                      S(states[rng.Uniform(5)]),
                      F(static_cast<double>(rng.UniformInt(1, 500)))});
  }
  return std::move(b).Finish();
}

/// `t` without its typed mirror (table/table_accel.h): the same columns
/// added one by one through AddColumn, which drops the mirror, so an MD-join
/// over it takes the Value-cell path.
inline Table WithoutMirror(const Table& t) {
  Table out;
  for (int c = 0; c < t.num_columns(); ++c) {
    Status st = out.AddColumn(t.schema().field(c), t.column(c));
    MDJ_CHECK(st.ok()) << st.ToString();
  }
  return out;
}

/// The oracle for a generalized MD-join: base columns, then each component's
/// aggregates as MdJoinReference (Definition 3.1) computes them on its own.
inline Table ReferencePerComponent(const Table& base, const Table& detail,
                                   const std::vector<MdJoinComponent>& components) {
  Table out = base.Clone();
  for (const MdJoinComponent& comp : components) {
    Result<Table> ref = MdJoinReference(base, detail, comp.aggs, comp.theta);
    MDJ_CHECK(ref.ok()) << ref.status().ToString();
    for (int c = base.num_columns(); c < ref->num_columns(); ++c) {
      Status st = out.AddColumn(ref->schema().field(c), ref->column(c));
      MDJ_CHECK(st.ok()) << st.ToString();
    }
  }
  return out;
}

}  // namespace testutil
}  // namespace mdjoin

#endif  // MDJOIN_TESTS_TEST_UTIL_H_
