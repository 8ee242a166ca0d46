#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/reference.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "expr/expr.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;

/// Evaluates `e` against one base row and one detail row.
Value EvalPair(const ExprPtr& e, const Table& base, int64_t brow, const Table& detail,
               int64_t drow) {
  Result<CompiledExpr> c = CompileExpr(e, &base.schema(), &detail.schema());
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  RowCtx ctx{&base, brow, &detail, drow};
  return c->Eval(ctx);
}

Value EvalSingle(const ExprPtr& e, const Table& t, int64_t row) {
  Result<CompiledExpr> c = CompileExpr(e, t.schema());
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  RowCtx ctx;
  ctx.detail = &t;
  ctx.detail_row = row;
  return c->Eval(ctx);
}

Table OneRow(std::vector<Field> fields, std::vector<Value> values) {
  TableBuilder b{Schema(std::move(fields))};
  b.AppendRowOrDie(std::move(values));
  return std::move(b).Finish();
}

TEST(ExprTest, LiteralsAndArithmetic) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(10)});
  EXPECT_EQ(EvalSingle(Add(Col("x"), Lit(5)), t, 0).int64(), 15);
  EXPECT_EQ(EvalSingle(Sub(Col("x"), Lit(3)), t, 0).int64(), 7);
  EXPECT_EQ(EvalSingle(Mul(Col("x"), Lit(2)), t, 0).int64(), 20);
  EXPECT_DOUBLE_EQ(EvalSingle(Div(Col("x"), Lit(4)), t, 0).float64(), 2.5);
  EXPECT_EQ(EvalSingle(Mod(Col("x"), Lit(3)), t, 0).int64(), 1);
  EXPECT_EQ(EvalSingle(Neg(Col("x")), t, 0).int64(), -10);
}

TEST(ExprTest, IntFloatPromotion) {
  Table t = OneRow({{"x", DataType::kFloat64}}, {F(1.5)});
  Value v = EvalSingle(Add(Col("x"), Lit(1)), t, 0);
  EXPECT_TRUE(v.is_float64());
  EXPECT_DOUBLE_EQ(v.float64(), 2.5);
}

TEST(ExprTest, DivisionByZeroIsNull) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(10)});
  EXPECT_TRUE(EvalSingle(Div(Col("x"), Lit(0)), t, 0).is_null());
  EXPECT_TRUE(EvalSingle(Mod(Col("x"), Lit(0)), t, 0).is_null());
}

/// int64 arithmetic never overflows into undefined behavior: a result outside
/// int64 is NULL, as division by zero is, and x % -1 is 0 (computing
/// INT64_MIN % -1 traps). The engine's bytecode and the reference evaluator
/// agree on every edge.
TEST(ExprTest, Int64OverflowIsNull) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Table t = OneRow({{"lo", DataType::kInt64}, {"hi", DataType::kInt64}},
                   {I(kMin), I(kMax)});
  struct Case {
    ExprPtr expr;
    Value want;
  };
  const Case cases[] = {
      {Add(Col("hi"), Lit(1)), NUL()},
      {Add(Col("lo"), Lit(-1)), NUL()},
      {Sub(Col("lo"), Lit(1)), NUL()},
      {Sub(Lit(0), Col("lo")), NUL()},
      {Mul(Col("hi"), Lit(2)), NUL()},
      {Mul(Col("lo"), Lit(-1)), NUL()},
      {Neg(Col("lo")), NUL()},
      {Mod(Col("lo"), Lit(-1)), I(0)},
      {Mod(Col("hi"), Lit(-1)), I(0)},
      {Mod(Lit(7), Lit(-1)), I(0)},
      // Results that land on or inside the edges still fit.
      {Add(Col("lo"), Col("hi")), I(-1)},
      {Sub(Col("hi"), Lit(0)), I(kMax)},
      {Mul(Col("lo"), Lit(1)), I(kMin)},
      {Neg(Col("hi")), I(kMin + 1)},
      {Mod(Col("lo"), Lit(3)), I(-2)},
      {Mod(Col("lo"), Col("lo")), I(0)},
      {Neg(Neg(Col("hi"))), I(kMax)},
      // `/` is float division and cannot overflow.
      {Div(Col("lo"), Lit(-1)), F(-static_cast<double>(kMin))},
  };
  RowCtx ctx;
  ctx.detail = &t;
  for (const Case& c : cases) {
    const Value got = EvalSingle(c.expr, t, 0);
    EXPECT_TRUE(testutil::BitEq(got, c.want))
        << c.expr->ToString() << " = " << got.ToString() << ", want " << c.want.ToString();
    const Value ref = EvalReference(*c.expr, ctx);
    EXPECT_TRUE(testutil::BitEq(ref, c.want))
        << c.expr->ToString() << " reference = " << ref.ToString();
  }
}

TEST(ExprTest, NullPropagatesThroughArithmetic) {
  Table t = OneRow({{"x", DataType::kInt64}}, {NUL()});
  EXPECT_TRUE(EvalSingle(Add(Col("x"), Lit(1)), t, 0).is_null());
  EXPECT_TRUE(EvalSingle(Neg(Col("x")), t, 0).is_null());
}

TEST(ExprTest, Comparisons) {
  Table t = OneRow({{"x", DataType::kInt64}, {"s", DataType::kString}}, {I(5), S("NY")});
  EXPECT_TRUE(EvalSingle(Eq(Col("x"), Lit(5)), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(Eq(Col("x"), Lit(6)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Ne(Col("x"), Lit(6)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Lt(Col("x"), Lit(6)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Le(Col("x"), Lit(5)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Gt(Col("x"), Lit(4)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Ge(Col("x"), Lit(5)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Eq(Col("s"), Lit("NY")), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Lt(Col("s"), Lit("NZ")), t, 0).IsTruthy());
}

TEST(ExprTest, ComparisonWithNullIsFalse) {
  Table t = OneRow({{"x", DataType::kInt64}}, {NUL()});
  EXPECT_FALSE(EvalSingle(Eq(Col("x"), Lit(1)), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(Ne(Col("x"), Lit(1)), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(Lt(Col("x"), Lit(1)), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(IsNull(Col("x")), t, 0).IsTruthy());
}

TEST(ExprTest, AllIsEqualityWildcard) {
  // The load-bearing cube semantics: B.state = R.state is true when the base
  // row's state is ALL.
  Table base = OneRow({{"state", DataType::kString}}, {ALL()});
  Table detail = OneRow({{"state", DataType::kString}}, {S("CA")});
  ExprPtr eq = Eq(BCol("state"), RCol("state"));
  EXPECT_TRUE(EvalPair(eq, base, 0, detail, 0).IsTruthy());
  // But ordered comparisons with ALL are false.
  EXPECT_FALSE(EvalPair(Lt(BCol("state"), RCol("state")), base, 0, detail, 0).IsTruthy());
  EXPECT_FALSE(EvalPair(Ge(BCol("state"), RCol("state")), base, 0, detail, 0).IsTruthy());
}

TEST(ExprTest, MixedTypeOrderedComparisonIsFalse) {
  Table t = OneRow({{"x", DataType::kInt64}, {"s", DataType::kString}}, {I(5), S("NY")});
  EXPECT_FALSE(EvalSingle(Lt(Col("x"), Col("s")), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(Eq(Col("x"), Col("s")), t, 0).IsTruthy());
}

TEST(ExprTest, BooleanConnectives) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(5)});
  EXPECT_TRUE(EvalSingle(And(Gt(Col("x"), Lit(1)), Lt(Col("x"), Lit(9))), t, 0).IsTruthy());
  EXPECT_FALSE(
      EvalSingle(And(Gt(Col("x"), Lit(1)), Lt(Col("x"), Lit(2))), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Or(Lt(Col("x"), Lit(2)), Gt(Col("x"), Lit(2))), t, 0).IsTruthy());
  EXPECT_TRUE(EvalSingle(Not(Eq(Col("x"), Lit(9))), t, 0).IsTruthy());
  // Variadic And.
  EXPECT_TRUE(EvalSingle(And(True(), True(), Gt(Col("x"), Lit(0))), t, 0).IsTruthy());
}

TEST(ExprTest, BetweenAndIn) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(5)});
  EXPECT_TRUE(EvalSingle(Between(Col("x"), Lit(5), Lit(7)), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(Between(Col("x"), Lit(6), Lit(7)), t, 0).IsTruthy());
  EXPECT_TRUE(
      EvalSingle(In(Col("x"), {Value::Int64(1), Value::Int64(5)}), t, 0).IsTruthy());
  EXPECT_FALSE(EvalSingle(In(Col("x"), {Value::Int64(1)}), t, 0).IsTruthy());
}

TEST(ExprTest, CaseExpression) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(5)});
  // First matching arm wins.
  ExprPtr e = CaseWhen({{Lt(Col("x"), Lit(3)), Lit("small")},
                        {Lt(Col("x"), Lit(10)), Lit("medium")}},
                       Lit("large"));
  EXPECT_EQ(EvalSingle(e, t, 0).string(), "medium");
  // No match, with ELSE.
  ExprPtr e2 = CaseWhen({{Gt(Col("x"), Lit(100)), Lit(1)}}, Lit(0));
  EXPECT_EQ(EvalSingle(e2, t, 0).int64(), 0);
  // No match, no ELSE: NULL.
  ExprPtr e3 = CaseWhen({{Gt(Col("x"), Lit(100)), Lit(1)}}, nullptr);
  EXPECT_TRUE(EvalSingle(e3, t, 0).is_null());
}

TEST(ExprTest, CaseConditionalAggregationIdiom) {
  // sum(case when state='NY' then sale end): the SQL pivot idiom.
  Table t = OneRow({{"state", DataType::kString}, {"sale", DataType::kFloat64}},
                   {S("NY"), F(10)});
  ExprPtr pick_ny = CaseWhen({{Eq(Col("state"), Lit("NY")), Col("sale")}}, nullptr);
  EXPECT_DOUBLE_EQ(EvalSingle(pick_ny, t, 0).float64(), 10.0);
  Table nj = OneRow({{"state", DataType::kString}, {"sale", DataType::kFloat64}},
                    {S("NJ"), F(10)});
  EXPECT_TRUE(EvalSingle(pick_ny, nj, 0).is_null());  // skipped by SUM
}

/// Every static result-type rule CompileExpr applies, one row per rule. A
/// soundness fuzz cannot tell a wrong but still sound type (Float64 where
/// Int64 is exact) from the right one; this table can.
TEST(ExprTest, ResultTypeInferenceRules) {
  const Schema base({{"b_int", DataType::kInt64},
                     {"b_flt", DataType::kFloat64},
                     {"b_str", DataType::kString}});
  const Schema detail({{"d_int", DataType::kInt64},
                       {"d_flt", DataType::kFloat64},
                       {"d_str", DataType::kString}});
  const ExprPtr cond = Eq(RCol("d_int"), Lit(1));
  struct Case {
    const char* rule;
    ExprPtr expr;
    DataType type;
  };
  const Case cases[] = {
      {"int literal", Lit(1), DataType::kInt64},
      {"float literal", Lit(1.5), DataType::kFloat64},
      {"string literal", Lit("NY"), DataType::kString},
      {"NULL literal", Lit(NUL()), DataType::kInt64},
      {"ALL literal", Lit(ALL()), DataType::kInt64},
      {"base int column", BCol("b_int"), DataType::kInt64},
      {"base float column", BCol("b_flt"), DataType::kFloat64},
      {"detail string column", RCol("d_str"), DataType::kString},
      {"NOT", Not(RCol("d_str")), DataType::kInt64},
      {"IS NULL", IsNull(RCol("d_flt")), DataType::kInt64},
      {"IN", In(RCol("d_flt"), {F(1.5), S("NY")}), DataType::kInt64},
      {"=", Eq(RCol("d_flt"), Lit(1.5)), DataType::kInt64},
      {"<>", Ne(RCol("d_str"), Lit("NY")), DataType::kInt64},
      {"<", Lt(RCol("d_flt"), BCol("b_flt")), DataType::kInt64},
      {"<=", Le(RCol("d_flt"), Lit(2)), DataType::kInt64},
      {">", Gt(BCol("b_str"), Lit("a")), DataType::kInt64},
      {">=", Ge(RCol("d_int"), Lit(2.5)), DataType::kInt64},
      {"AND", And(RCol("d_flt"), RCol("d_str")), DataType::kInt64},
      {"OR", Or(RCol("d_flt"), BCol("b_str")), DataType::kInt64},
      {"negate int", Neg(RCol("d_int")), DataType::kInt64},
      {"negate float", Neg(BCol("b_flt")), DataType::kFloat64},
      {"negate string", Neg(RCol("d_str")), DataType::kString},
      {"int + int", Add(RCol("d_int"), BCol("b_int")), DataType::kInt64},
      {"int - int", Sub(RCol("d_int"), Lit(1)), DataType::kInt64},
      {"int * int", Mul(BCol("b_int"), Lit(3)), DataType::kInt64},
      {"int % int", Mod(RCol("d_int"), Lit(3)), DataType::kInt64},
      {"int / int", Div(RCol("d_int"), BCol("b_int")), DataType::kFloat64},
      {"int + float", Add(RCol("d_int"), Lit(0.5)), DataType::kFloat64},
      {"float % int", Mod(RCol("d_flt"), Lit(2)), DataType::kFloat64},
      {"float * float", Mul(RCol("d_flt"), BCol("b_flt")), DataType::kFloat64},
      {"int + string", Add(RCol("d_int"), RCol("d_str")), DataType::kFloat64},
      {"string - string", Sub(Lit("a"), BCol("b_str")), DataType::kFloat64},
      {"NULL + int", Add(Lit(NUL()), Lit(1)), DataType::kInt64},
      {"nested int", Add(Neg(RCol("d_int")), Mod(BCol("b_int"), Lit(2))),
       DataType::kInt64},
      {"comparison result in arithmetic", Add(cond, Lit(1)), DataType::kInt64},
      {"CASE int arm, no ELSE", CaseWhen({{cond, Lit(1)}}), DataType::kInt64},
      {"CASE int arm, float ELSE", CaseWhen({{cond, Lit(1)}}, Lit(2.5)),
       DataType::kFloat64},
      {"CASE float arm, int arm", CaseWhen({{cond, RCol("d_flt")}, {cond, Lit(2)}}),
       DataType::kFloat64},
      {"CASE string arm, string ELSE", CaseWhen({{cond, Lit("a")}}, RCol("d_str")),
       DataType::kString},
      {"CASE string arm, no ELSE", CaseWhen({{cond, BCol("b_str")}}),
       DataType::kString},
      {"CASE WHEN types do not count", CaseWhen({{Lit("x"), Lit(1)}}, Lit(2)),
       DataType::kInt64},
  };
  for (const Case& c : cases) {
    Result<CompiledExpr> compiled = CompileExpr(c.expr, &base, &detail);
    ASSERT_TRUE(compiled.ok()) << c.rule << ": " << compiled.status().ToString();
    EXPECT_EQ(compiled->result_type(), c.type)
        << c.rule << ": " << c.expr->ToString() << " inferred "
        << DataTypeToString(compiled->result_type());
  }

  // CASE results mixing the string and numeric families are a TypeError,
  // whether the mix is between THEN arms or between an arm and ELSE.
  const ExprPtr mixed[] = {
      CaseWhen({{cond, Lit("a")}}, Lit(1)),
      CaseWhen({{cond, RCol("d_flt")}, {cond, BCol("b_str")}}),
      CaseWhen({{cond, RCol("d_str")}}, RCol("d_int")),
  };
  for (const ExprPtr& e : mixed) {
    EXPECT_TRUE(CompileExpr(e, &base, &detail).status().IsTypeError()) << e->ToString();
  }
}

TEST(ExprTest, CaseStructuralHelpers) {
  ExprPtr e = CaseWhen({{Eq(BCol("state"), Lit("NY")), RCol("sale")}}, BCol("backup"));
  EXPECT_TRUE(e->ReferencesSide(Side::kBase));
  EXPECT_TRUE(e->ReferencesSide(Side::kDetail));
  EXPECT_EQ(e->ReferencedColumns(Side::kBase),
            (std::set<std::string>{"state", "backup"}));
  ExprPtr remapped = Expr::RemapSide(e, Side::kBase, Side::kDetail);
  EXPECT_FALSE(remapped->ReferencesSide(Side::kBase));
  EXPECT_NE(e->ToString().find("case when"), std::string::npos);
}

TEST(ExprTest, BindErrors) {
  Table t = OneRow({{"x", DataType::kInt64}}, {I(1)});
  EXPECT_TRUE(CompileExpr(Col("nope"), t.schema()).status().IsNotFound());
  // Base-side reference without a base schema is a bind error.
  EXPECT_TRUE(CompileExpr(BCol("x"), t.schema()).status().IsBindError());
}

TEST(ExprTest, ReferencesSideAndColumns) {
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")));
  EXPECT_TRUE(theta->ReferencesSide(Side::kBase));
  EXPECT_TRUE(theta->ReferencesSide(Side::kDetail));
  EXPECT_EQ(theta->ReferencedColumns(Side::kBase), std::set<std::string>{"cust"});
  EXPECT_EQ(theta->ReferencedColumns(Side::kDetail),
            (std::set<std::string>{"cust", "state"}));
}

TEST(ExprTest, RemapSide) {
  ExprPtr sel = Gt(BCol("month"), Lit(3));
  ExprPtr remapped = Expr::RemapSide(sel, Side::kBase, Side::kDetail);
  EXPECT_FALSE(remapped->ReferencesSide(Side::kBase));
  EXPECT_EQ(remapped->ReferencedColumns(Side::kDetail), std::set<std::string>{"month"});
}

TEST(ExprTest, RenameColumnsRewrites) {
  ExprPtr e = Eq(RCol("a"), RCol("b"));
  ExprPtr renamed = Expr::RenameColumns(e, Side::kDetail, {"a"}, {"x"});
  EXPECT_EQ(renamed->ReferencedColumns(Side::kDetail), (std::set<std::string>{"x", "b"}));
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr e = And(Eq(RCol("cust"), BCol("cust")), Eq(RCol("state"), Lit("NY")));
  EXPECT_EQ(e->ToString(), "((R.cust = B.cust) and (R.state = 'NY'))");
}

TEST(ExprTest, EvalConstExpr) {
  Result<Value> v = EvalConstExpr(Add(Lit(2), Lit(3)));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64(), 5);
  EXPECT_FALSE(EvalConstExpr(Col("x")).ok());
}

TEST(ConjunctsTest, SplitFlattensNestedAnds) {
  ExprPtr e = And(Eq(RCol("a"), Lit(1)), And(Eq(RCol("b"), Lit(2)), Eq(RCol("c"), Lit(3))));
  std::vector<ExprPtr> parts = SplitConjuncts(e);
  EXPECT_EQ(parts.size(), 3u);
}

TEST(ConjunctsTest, TrueLiteralVanishes) {
  EXPECT_TRUE(SplitConjuncts(True()).empty());
  EXPECT_EQ(SplitConjuncts(And(True(), Eq(RCol("a"), Lit(1)))).size(), 1u);
}

TEST(ConjunctsTest, CombineEmptyIsTrue) {
  ExprPtr combined = CombineConjuncts({});
  Result<Value> v = EvalConstExpr(combined);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->IsTruthy());
}

TEST(ConjunctsTest, AnalyzeThetaClassifies) {
  // Example 2.2's first θ: Sales.cust = cust and Sales.state = 'NY',
  // plus a base-only and a mixed non-equi conjunct for coverage.
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),  // equi
                      Eq(RCol("state"), Lit("NY")),    // detail-only
                      Gt(BCol("month"), Lit(1)),       // base-only
                      Gt(RCol("sale"), BCol("avg_sale")));  // residual
  ThetaParts parts = AnalyzeTheta(theta);
  ASSERT_EQ(parts.equi.size(), 1u);
  EXPECT_EQ(parts.equi[0].base_expr->ToString(), "B.cust");
  EXPECT_EQ(parts.equi[0].detail_expr->ToString(), "R.cust");
  EXPECT_EQ(parts.detail_only.size(), 1u);
  EXPECT_EQ(parts.base_only.size(), 1u);
  EXPECT_EQ(parts.residual.size(), 1u);
}

TEST(ConjunctsTest, ComputedEquiKey) {
  // Example 2.5's previous-month condition: R.month = B.month - 1.
  ExprPtr theta = Eq(RCol("month"), Sub(BCol("month"), Lit(1)));
  ThetaParts parts = AnalyzeTheta(theta);
  ASSERT_EQ(parts.equi.size(), 1u);
  EXPECT_EQ(parts.equi[0].base_expr->ToString(), "(B.month - 1)");
}

TEST(ConjunctsTest, EquiNeedsOneSidePerOperand) {
  // B.a + R.b = 3 is mixed on one operand: residual, not equi.
  ExprPtr theta = Eq(Add(BCol("a"), RCol("b")), Lit(3));
  ThetaParts parts = AnalyzeTheta(theta);
  EXPECT_TRUE(parts.equi.empty());
  EXPECT_EQ(parts.residual.size(), 1u);
}

TEST(ConjunctsTest, CombineThetaRoundTripsSemantics) {
  Table base = OneRow({{"cust", DataType::kInt64}, {"month", DataType::kInt64}},
                      {I(1), I(2)});
  Table detail = OneRow(
      {{"cust", DataType::kInt64}, {"month", DataType::kInt64}, {"sale", DataType::kFloat64}},
      {I(1), I(1), F(10)});
  ExprPtr theta = And(Eq(RCol("cust"), BCol("cust")),
                      Eq(RCol("month"), Sub(BCol("month"), Lit(1))),
                      Gt(RCol("sale"), Lit(5)));
  ExprPtr recombined = CombineTheta(AnalyzeTheta(theta));
  EXPECT_EQ(EvalPair(theta, base, 0, detail, 0).IsTruthy(),
            EvalPair(recombined, base, 0, detail, 0).IsTruthy());
  EXPECT_TRUE(EvalPair(recombined, base, 0, detail, 0).IsTruthy());
}

}  // namespace
}  // namespace mdjoin
