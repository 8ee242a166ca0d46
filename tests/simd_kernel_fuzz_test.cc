/// Differential fuzz over the raw-speed machinery, each layer checked against
/// a slower oracle:
///
///   - simd::Cmp* and the mask helpers at every available level vs a scalar
///     reference implementing the documented semantics (including NaN-true
///     kLe/kGe)
///   - PredicateKernels::FilterBlock (flat plans, dictionary translation,
///     dense bitmask path) at every level vs EvalReference per row
///   - the bytecode interpreter vs EvalReference (core/reference.h) on random
///     expression trees (NULL/ALL/NaN-laden rows, int64 overflow edges)
///   - typed AggStateColumn updates vs the Value-at-a-time Update
///   - whole MD-joins over detail with and without its typed mirror,
///     bit-identical to the Definition 3.1 reference
///
/// Everything is seeded — failures reproduce.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/flat_state.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/mdjoin.h"
#include "core/reference.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/kernels.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kNeon, simd::Level::kAvx2}) {
    if (simd::LevelAvailable(l)) levels.push_back(l);
  }
  return levels;
}

bool MaskBit(const uint64_t* mask, int i) {
  return (mask[i >> 6] >> (i & 63)) & 1;
}

/// Reference verdict for one element under the simd::CmpOp semantics
/// documented in common/simd.h (float kLe/kGe are NaN-true).
template <typename T>
bool RefCmp(simd::CmpOp op, T x, T lit) {
  switch (op) {
    case simd::CmpOp::kEq: return x == lit;
    case simd::CmpOp::kNe: return x != lit;
    case simd::CmpOp::kLt: return x < lit;
    case simd::CmpOp::kLe: return !(x > lit);
    case simd::CmpOp::kGt: return x > lit;
    case simd::CmpOp::kGe: return !(x < lit);
  }
  return false;
}

constexpr simd::CmpOp kAllCmpOps[] = {simd::CmpOp::kEq, simd::CmpOp::kNe,
                                      simd::CmpOp::kLt, simd::CmpOp::kLe,
                                      simd::CmpOp::kGt, simd::CmpOp::kGe};

class SimdFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimdFuzz, CompareKernelsAgreeWithScalarReference) {
  Random rng(GetParam());
  const double kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              0.0, -0.0};
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 300));
    std::vector<int64_t> xi(static_cast<size_t>(n));
    std::vector<double> xf(static_cast<size_t>(n));
    std::vector<int32_t> xc(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      xi[static_cast<size_t>(i)] = rng.UniformInt(-8, 8);
      xf[static_cast<size_t>(i)] = rng.Bernoulli(0.1)
                                       ? kSpecials[rng.Uniform(5)]
                                       : static_cast<double>(rng.UniformInt(-40, 40)) / 4;
      xc[static_cast<size_t>(i)] = static_cast<int32_t>(rng.UniformInt(-4, 4));
    }
    const int64_t li = rng.UniformInt(-8, 8);
    const double lf =
        rng.Bernoulli(0.2) ? kSpecials[rng.Uniform(5)]
                           : static_cast<double>(rng.UniformInt(-40, 40)) / 4;
    const int32_t lc = static_cast<int32_t>(rng.UniformInt(-4, 4));

    std::vector<uint64_t> mask(static_cast<size_t>(simd::MaskWords(n)));
    for (simd::Level level : AvailableLevels()) {
      for (simd::CmpOp op : kAllCmpOps) {
        simd::CmpI64(level, op, xi.data(), n, li, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xi[static_cast<size_t>(i)], li))
              << "i64 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i;
        }
        simd::CmpF64(level, op, xf.data(), n, lf, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xf[static_cast<size_t>(i)], lf))
              << "f64 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i << " x=" << xf[static_cast<size_t>(i)] << " lit=" << lf;
        }
        simd::CmpI32(level, op, xc.data(), n, lc, mask.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(MaskBit(mask.data(), i), RefCmp(op, xc[static_cast<size_t>(i)], lc))
              << "i32 level=" << simd::LevelName(level) << " op=" << static_cast<int>(op)
              << " i=" << i;
        }
      }
    }
  }
}

TEST_P(SimdFuzz, MaskHelpersAgree) {
  Random rng(GetParam() + 17);
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 300));
    std::vector<uint8_t> nulls(static_cast<size_t>(n));
    std::vector<uint64_t> mask(static_cast<size_t>(simd::MaskWords(n)));
    for (int i = 0; i < n; ++i) nulls[static_cast<size_t>(i)] = rng.Bernoulli(0.3) ? 1 : 0;

    // MaskFromNotNull / MaskAndNotNull / MaskCompress vs hand evaluation.
    simd::MaskSetAll(mask.data(), n);
    simd::MaskAndNotNull(nulls.data(), n, mask.data());
    std::vector<uint32_t> sel(static_cast<size_t>(n));
    const int count = simd::MaskCompress(mask.data(), n, sel.data());
    int expect_count = 0;
    for (int i = 0; i < n; ++i) {
      if (nulls[static_cast<size_t>(i)] == 0) {
        ASSERT_LT(expect_count, count);
        EXPECT_EQ(sel[static_cast<size_t>(expect_count)], static_cast<uint32_t>(i));
        ++expect_count;
      }
    }
    EXPECT_EQ(count, expect_count);
    EXPECT_EQ(simd::MaskAllSet(mask.data(), n), expect_count == n);

    // MaskFromNotNull is MaskSetAll followed by MaskAndNotNull.
    std::vector<uint64_t> from(mask.size());
    simd::MaskFromNotNull(nulls.data(), n, from.data());
    EXPECT_EQ(from, mask);
  }
}

/// Random detail table for the predicate/bytecode differentials: int64,
/// float64 (with NaN), and low-cardinality string columns, NULLs everywhere,
/// and (optionally) a sprinkle of ALL to force kNone columns.
Table RandomDetail(Random* rng, int64_t rows, bool with_all) {
  Schema schema({{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"j", DataType::kInt64}});
  const char* strings[] = {"NY", "NJ", "CT", "CA", "zz"};
  TableBuilder b(schema);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < 4; ++c) {
      const double dice = rng->NextDouble();
      if (dice < 0.10) {
        row.push_back(Value::Null());
      } else if (with_all && dice < 0.14) {
        row.push_back(Value::All());
      } else {
        switch (schema.field(c).type) {
          case DataType::kInt64:
            row.push_back(I(rng->UniformInt(-6, 6)));
            break;
          case DataType::kFloat64:
            row.push_back(rng->Bernoulli(0.06)
                              ? F(std::numeric_limits<double>::quiet_NaN())
                              : F(static_cast<double>(rng->UniformInt(-24, 24)) / 4));
            break;
          case DataType::kString:
            row.push_back(S(strings[rng->Uniform(5)]));
            break;
        }
      }
    }
    b.AppendRowOrDie(std::move(row));
  }
  return std::move(b).Finish();
}

/// One random detail-only conjunct of a shape the kernels plan for (plus the
/// occasional generic fallback).
ExprPtr RandomConjunct(Random* rng) {
  const char* cols[] = {"i", "f", "s", "j"};
  ExprPtr col = RCol(cols[rng->Uniform(4)]);
  auto random_lit = [&]() -> ExprPtr {
    switch (rng->Uniform(6)) {
      case 0: return Lit(rng->UniformInt(-6, 6));
      case 1: return Lit(static_cast<double>(rng->UniformInt(-24, 24)) / 4);
      case 2: return Lit("NJ");
      case 3: return Lit("missing");  // absent from every dictionary
      case 4: return Lit(Value::Null());
      default: return Lit(std::numeric_limits<double>::quiet_NaN());
    }
  };
  switch (rng->Uniform(9)) {
    case 0: return Eq(std::move(col), random_lit());
    case 1: return Ne(std::move(col), random_lit());
    case 2: return Lt(std::move(col), random_lit());
    case 3: return Le(std::move(col), random_lit());
    case 4: return Gt(std::move(col), random_lit());
    case 5: return Ge(std::move(col), random_lit());
    case 6: {
      // Mixed-type IN list with boundary floats: 2^53 is exactly the first
      // double where int translation would go wrong, so the planner must
      // abandon the flat plan, not mistranslate it.
      std::vector<Value> cands = {I(rng->UniformInt(-6, 6)), S("NY"),
                                  F(2.0), F(2.5), Value::Null(),
                                  F(9007199254740992.0)};
      return In(std::move(col), std::move(cands));
    }
    case 7: {
      std::vector<Value> cands = {I(0), I(3), F(-1.0)};
      return In(std::move(col), std::move(cands));
    }
    default:
      // Generic fallback: arithmetic the flat planner cannot touch.
      return Lt(Add(RCol("i"), RCol("j")), Lit(rng->UniformInt(-4, 4)));
  }
}

TEST_P(SimdFuzz, FilterBlockMatchesReference) {
  Random rng(GetParam() + 31);
  for (int with_all = 0; with_all < 2; ++with_all) {
    Table detail = RandomDetail(&rng, 700, with_all == 1);
    ASSERT_NE(detail.accel(), nullptr);
    for (int round = 0; round < 12; ++round) {
      std::vector<ExprPtr> conjuncts;
      const int nc = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < nc; ++i) conjuncts.push_back(RandomConjunct(&rng));

      const ExprPtr theta = CombineConjuncts(conjuncts);
      std::vector<char> expect(static_cast<size_t>(detail.num_rows()));
      RowCtx ctx;
      ctx.detail = &detail;
      for (int64_t t = 0; t < detail.num_rows(); ++t) {
        ctx.detail_row = t;
        expect[static_cast<size_t>(t)] = EvalReference(*theta, ctx).IsTruthy();
      }

      for (simd::Level level : AvailableLevels()) {
        for (int flat = 0; flat < 2; ++flat) {
          Result<PredicateKernels> kernels = PredicateKernels::Compile(
              conjuncts, detail.schema(), flat == 1 ? detail.accel() : nullptr, level);
          ASSERT_TRUE(kernels.ok()) << kernels.status().ToString();
          const int block = static_cast<int>(rng.UniformInt(50, 200));
          std::vector<uint32_t> sel(static_cast<size_t>(block));
          std::vector<uint64_t> mask(2 * static_cast<size_t>(simd::MaskWords(block)));
          KernelStats stats;
          for (int64_t start = 0; start < detail.num_rows(); start += block) {
            const int n =
                static_cast<int>(std::min<int64_t>(block, detail.num_rows() - start));
            BlockFilter filt = kernels->FilterBlock(detail, start, n, sel.data(),
                                                    mask.data(), &stats);
            std::vector<char> got(static_cast<size_t>(n), 0);
            for (int i = 0; i < filt.count; ++i) {
              const int lane = filt.dense ? i : static_cast<int>(sel[static_cast<size_t>(i)]);
              got[static_cast<size_t>(lane)] = 1;
            }
            for (int i = 0; i < n; ++i) {
              ASSERT_EQ(static_cast<bool>(got[static_cast<size_t>(i)]),
                        static_cast<bool>(expect[static_cast<size_t>(start + i)]))
                  << "level=" << simd::LevelName(level) << " flat=" << flat
                  << " row=" << start + i << " theta=" << theta->ToString();
            }
          }
        }
      }
    }
  }
}

/// Value equality strict enough for bit-identity checks: NaN == NaN, and
/// int64/float64 never conflated.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_all() || b.is_all()) return a.is_all() && b.is_all();
  if (a.is_int64() != b.is_int64() || a.is_float64() != b.is_float64()) return false;
  if (a.is_int64()) return a.int64() == b.int64();
  if (a.is_float64()) {
    const double x = a.float64(), y = b.float64();
    return (x == y && std::signbit(x) == std::signbit(y)) ||
           (std::isnan(x) && std::isnan(y));
  }
  return a.Equals(b);
}

/// Integer values for the bytecode differential: small ones, plus the int64
/// edges where +, -, *, % and negation overflow (INT64_MIN % -1 among them).
int64_t RandomInt(Random* rng) {
  const int64_t edges[] = {std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), -1};
  return rng->Bernoulli(0.3) ? edges[rng->Uniform(3)] : rng->UniformInt(-5, 5);
}

/// Random expression over both sides covering every bytecode op, including
/// short-circuit AND/OR and multi-arm CASE. `numeric` restricts the result
/// type to numeric — required for CASE then/else arms, where the compiler
/// rejects mixing string and numeric results (everything else in the grammar
/// is dynamically typed and legal over any operand mix).
ExprPtr RandomBytecodeExpr(Random* rng, int depth, bool numeric = false) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    switch (rng->Uniform(numeric ? 5 : 8)) {
      case 0: return BCol("b_int");
      case 1: return RCol("i");
      case 2: return RCol("f");
      case 3: return Lit(RandomInt(rng));
      case 4: return Lit(static_cast<double>(rng->UniformInt(-20, 20)) / 4);
      case 5: return BCol("b_str");
      case 6: return RCol("s");
      default: return Lit("NY");
    }
  }
  switch (rng->Uniform(14)) {
    case 0: return Add(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 1: return Sub(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 2: return Mul(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 3: return Div(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 4: return Mod(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 5: return Eq(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 6: return Lt(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 7: return Ge(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 8: return And(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 9: return Or(RandomBytecodeExpr(rng, depth - 1), RandomBytecodeExpr(rng, depth - 1));
    case 10: return Not(RandomBytecodeExpr(rng, depth - 1));
    case 11: return IsNull(RandomBytecodeExpr(rng, depth - 1));
    case 12:
      return In(RandomBytecodeExpr(rng, depth - 1),
                {Value::Int64(rng->UniformInt(-3, 3)), Value::String("NY"),
                 Value::Null()});
    default: {
      // The then/else arms share one type family; string-family CASEs use
      // string leaves directly (deeper string-typed trees don't exist in
      // this grammar — every operator yields a numeric).
      const bool string_family = !numeric && rng->Bernoulli(0.3);
      auto arm = [&]() -> ExprPtr {
        if (!string_family) return RandomBytecodeExpr(rng, depth - 1, /*numeric=*/true);
        switch (rng->Uniform(3)) {
          case 0: return BCol("b_str");
          case 1: return RCol("s");
          default: return Lit("NY");
        }
      };
      return CaseWhen({{RandomBytecodeExpr(rng, depth - 1), arm()},
                       {RandomBytecodeExpr(rng, depth - 1), arm()}},
                      rng->Bernoulli(0.5) ? arm() : nullptr);
    }
  }
}

TEST_P(SimdFuzz, BytecodeMatchesReference) {
  Random rng(GetParam() + 47);
  Schema base_schema({{"b_int", DataType::kInt64}, {"b_str", DataType::kString}});
  TableBuilder bb(base_schema);
  const char* bstr[] = {"NY", "zz"};
  for (int r = 0; r < 10; ++r) {
    const double dice = rng.NextDouble();
    bb.AppendRowOrDie({dice < 0.15 ? NUL() : (dice < 0.3 ? testutil::ALL()
                                                         : I(RandomInt(&rng))),
                       rng.Bernoulli(0.2) ? NUL() : S(bstr[rng.Uniform(2)])});
  }
  Table base = std::move(bb).Finish();
  Table detail = RandomDetail(&rng, 10, /*with_all=*/true);

  for (int round = 0; round < 80; ++round) {
    ExprPtr expr = RandomBytecodeExpr(&rng, 4);
    Result<CompiledExpr> compiled = CompileExpr(expr, &base_schema, &detail.schema());
    ASSERT_TRUE(compiled.ok()) << expr->ToString();
    RowCtx ctx;
    ctx.base = &base;
    ctx.detail = &detail;
    for (int64_t b = 0; b < base.num_rows(); ++b) {
      for (int64_t d = 0; d < detail.num_rows(); ++d) {
        ctx.base_row = b;
        ctx.detail_row = d;
        const Value want = EvalReference(*expr, ctx);
        const Value bc = compiled->Eval(ctx);
        ASSERT_TRUE(SameValue(want, bc))
            << expr->ToString() << " reference=" << want.ToString()
            << " bytecode=" << bc.ToString() << " b=" << b << " d=" << d;
      }
    }
  }
}

TEST_P(SimdFuzz, TypedAggUpdatesMatchValueUpdates) {
  Random rng(GetParam() + 71);
  const char* fns[] = {"count", "sum", "min", "max", "avg"};
  for (const char* name : fns) {
    Result<const AggregateFunction*> fn = AggregateRegistry::Global()->Lookup(name);
    ASSERT_TRUE(fn.ok()) << name;
    const int64_t groups = 24;
    AggStateColumn typed = AggStateColumn::Make(*fn, groups);
    AggStateColumn oracle = AggStateColumn::Make(*fn, groups);
    for (int round = 0; round < 300; ++round) {
      std::vector<int64_t> gs(static_cast<size_t>(rng.UniformInt(1, 6)));
      for (int64_t& g : gs) g = rng.UniformInt(0, groups - 1);
      const int n = static_cast<int>(gs.size());
      switch (rng.Uniform(3)) {
        case 0: {
          const int64_t x = rng.UniformInt(-100, 100);
          typed.UpdateManyI64(gs.data(), n, x);
          for (int64_t g : gs) oracle.Update(g, I(x));
          break;
        }
        case 1: {
          const double x = rng.Bernoulli(0.1)
                               ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(rng.UniformInt(-400, 400)) / 4;
          typed.UpdateManyF64(gs.data(), n, x);
          for (int64_t g : gs) oracle.Update(g, F(x));
          break;
        }
        default: {
          if (std::string(name) == "count") {
            // count(*): the many-group form against per-group updates.
            typed.UpdateCountStarMany(gs.data(), n);
            for (int64_t g : gs) oracle.UpdateCountStar(g);
          } else {
            // NULL argument cell: the Value path must skip it everywhere.
            typed.UpdateMany(gs.data(), n, NUL());
            for (int64_t g : gs) oracle.Update(g, NUL());
          }
          break;
        }
      }
    }
    for (int64_t g = 0; g < groups; ++g) {
      const Value a = typed.Finalize(g), b = oracle.Finalize(g);
      EXPECT_TRUE(SameValue(a, b))
          << name << " group " << g << ": typed=" << a.ToString()
          << " oracle=" << b.ToString();
    }
  }
}

TEST_P(SimdFuzz, MdJoinIdenticalWithAndWithoutMirror) {
  Random rng(GetParam() + 93);
  const Table detail = testutil::RandomSales(GetParam(), 2500);
  const Table plain = testutil::WithoutMirror(detail);
  ASSERT_NE(detail.accel(), nullptr);
  ASSERT_EQ(plain.accel(), nullptr);
  // Cube-style base: (prod, month) at every granularity, exercising the
  // multi-bucket index and its code-key memo.
  TableBuilder bb({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  for (int64_t p : {10, 20, 30, 40}) {
    for (int64_t m : {1, 2, 3, 4}) bb.AppendRowOrDie({I(p), I(m)});
    bb.AppendRowOrDie({I(p), testutil::ALL()});
  }
  for (int64_t m : {1, 2, 3, 4}) bb.AppendRowOrDie({testutil::ALL(), I(m)});
  bb.AppendRowOrDie({testutil::ALL(), testutil::ALL()});
  Table base = std::move(bb).Finish();

  const std::vector<AggSpec> aggs = {Count("cnt"),
                                     Sum(RCol("sale"), "total"),
                                     Min(RCol("sale"), "lo"),
                                     Max(RCol("sale"), "hi"),
                                     Avg(RCol("sale"), "mean"),
                                     Count(RCol("state"), "states")};
  // Indexed θ with a dictionary-translated string predicate and residual-free
  // detail pushdown; second θ has no equi part, so every selected detail row
  // matches every base row through the unindexed candidate list.
  const ExprPtr thetas[] = {
      And(Eq(BCol("prod"), RCol("prod")), Eq(BCol("month"), RCol("month")),
          Ne(RCol("state"), Lit("CA")), Gt(RCol("sale"), Lit(100))),
      And(Lt(RCol("sale"), Lit(250.0)),
          In(RCol("state"), {S("NY"), S("NJ"), S("CT")}))};

  for (const ExprPtr& theta : thetas) {
    Result<Table> oracle = MdJoinReference(base, detail, aggs, theta);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    for (const Table* scanned : {&detail, &plain}) {
      Result<Table> got = MdJoin(base, *scanned, aggs, theta);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(TablesEqualOrdered(*oracle, *got))
          << "mirror=" << (scanned->accel() != nullptr) << " theta=" << theta->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdFuzz, ::testing::Values(11, 22, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mdjoin
