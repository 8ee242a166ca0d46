/// Static verifier coverage (expr/verifier.h): every program the emitter
/// produces — including the degenerate shapes that stress the AND/OR jump
/// patching — must verify and evaluate correctly; hand-mutated programs with
/// broken invariants must be rejected with the structured diagnostic naming
/// the violation, never a crash or a wild read.

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "expr/verifier.h"
#include "table/table_builder.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT

using Instr = BytecodeExpr::Instr;
using Op = BytecodeExpr::OpCode;

Schema BaseSchema() {
  return Schema({{"b_int", DataType::kInt64}, {"b_str", DataType::kString}});
}
Schema DetailSchema() {
  return Schema({{"d_int", DataType::kInt64}, {"d_flt", DataType::kFloat64}});
}

/// Compiles `expr`, asserts the program verifies, and returns it.
BytecodeExpr CompileVerified(const ExprPtr& expr, const Schema& base,
                             const Schema& detail) {
  Result<BytecodeExpr> bc = BytecodeExpr::Compile(expr, &base, &detail);
  EXPECT_TRUE(bc.ok()) << expr->ToString();
  VerifierReport report = VerifyBytecode(*bc, &base, &detail);
  EXPECT_TRUE(report.ok()) << expr->ToString() << "\n" << report.ToString();
  EXPECT_EQ(report.verified_instrs, bc->num_instrs());
  EXPECT_GE(report.max_stack_depth, 1);
  return *std::move(bc);
}

/// One-row tables for direct Eval checks.
struct Fixture {
  Table base;
  Table detail;
  Fixture(int64_t b_int, int64_t d_int)
      : base(MakeBase(b_int)), detail(MakeDetail(d_int)) {}
  static Table MakeBase(int64_t v) {
    TableBuilder b(BaseSchema());
    b.AppendRowOrDie({Value::Int64(v), Value::String("NY")});
    return std::move(b).Finish();
  }
  static Table MakeDetail(int64_t v) {
    TableBuilder b(DetailSchema());
    b.AppendRowOrDie({Value::Int64(v), Value::Float64(1.5)});
    return std::move(b).Finish();
  }
  RowCtx Ctx() const {
    RowCtx ctx;
    ctx.base = &base;
    ctx.detail = &detail;
    ctx.base_row = 0;
    ctx.detail_row = 0;
    return ctx;
  }
};

// ---------------------------------------------------------------------------
// Degenerate emitter shapes (satellite b: AND/OR jump-patching audit)
// ---------------------------------------------------------------------------

TEST(BytecodeVerifier, SingleConjunct) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  BytecodeExpr bc = CompileVerified(Lt(RCol("d_int"), Lit(5)), bs, ds);
  EXPECT_TRUE(Fixture(0, 3).Ctx().base != nullptr);
  EXPECT_TRUE(bc.Eval(Fixture(0, 3).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(0, 7).Ctx()).IsTruthy());
}

TEST(BytecodeVerifier, ConstantOnlyTheta) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  BytecodeExpr t = CompileVerified(Eq(Lit(1), Lit(1)), bs, ds);
  EXPECT_TRUE(t.Eval(Fixture(0, 0).Ctx()).IsTruthy());
  BytecodeExpr f = CompileVerified(Eq(Lit(1), Lit(2)), bs, ds);
  EXPECT_FALSE(f.Eval(Fixture(0, 0).Ctx()).IsTruthy());
  // A bare literal is the smallest possible program.
  BytecodeExpr lit = CompileVerified(Lit(1), bs, ds);
  EXPECT_TRUE(lit.Eval(Fixture(0, 0).Ctx()).IsTruthy());
}

TEST(BytecodeVerifier, DeeplyNestedOr64Terms) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  // Left-leaning OR chain of 64 equality terms: every kOrJump must patch to
  // the same final merge point; the verifier proves all merge depths agree.
  ExprPtr e = Eq(RCol("d_int"), Lit(0));
  for (int i = 1; i < 64; ++i) e = Or(e, Eq(RCol("d_int"), Lit(i)));
  BytecodeExpr bc = CompileVerified(e, bs, ds);
  EXPECT_TRUE(bc.Eval(Fixture(0, 63).Ctx()).IsTruthy());
  EXPECT_TRUE(bc.Eval(Fixture(0, 0).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(0, 64).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(0, -1).Ctx()).IsTruthy());
}

TEST(BytecodeVerifier, DeeplyNestedAnd64Terms) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  ExprPtr e = Ge(RCol("d_int"), Lit(-1000));
  for (int i = 1; i < 64; ++i) e = And(e, Ge(RCol("d_int"), Lit(-1000 + i)));
  BytecodeExpr bc = CompileVerified(e, bs, ds);
  EXPECT_TRUE(bc.Eval(Fixture(0, 0).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(0, -999).Ctx()).IsTruthy());
}

TEST(BytecodeVerifier, RightLeaningMixedAndOr) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  // Right-leaning nesting exercises jump targets that skip whole subprograms.
  ExprPtr e = Eq(RCol("d_int"), Lit(99));
  for (int i = 0; i < 32; ++i) {
    e = (i % 2 == 0) ? Or(Eq(RCol("d_int"), Lit(i)), e)
                     : And(Ge(RCol("d_int"), Lit(-100)), e);
  }
  BytecodeExpr bc = CompileVerified(e, bs, ds);
  EXPECT_TRUE(bc.Eval(Fixture(0, 99).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(0, 55).Ctx()).IsTruthy());
}

TEST(BytecodeVerifier, CaseWithAndWithoutElse) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  ExprPtr with_else = Expr::Case(
      {{Lt(RCol("d_int"), Lit(0)), Lit(-1)}, {Gt(RCol("d_int"), Lit(0)), Lit(1)}},
      Lit(0));
  BytecodeExpr bc = CompileVerified(with_else, bs, ds);
  EXPECT_EQ(bc.Eval(Fixture(0, -5).Ctx()).int64(), -1);
  EXPECT_EQ(bc.Eval(Fixture(0, 5).Ctx()).int64(), 1);
  EXPECT_EQ(bc.Eval(Fixture(0, 0).Ctx()).int64(), 0);

  ExprPtr no_else = Expr::Case({{Lt(RCol("d_int"), Lit(0)), Lit(-1)}}, nullptr);
  BytecodeExpr bc2 = CompileVerified(no_else, bs, ds);
  EXPECT_EQ(bc2.Eval(Fixture(0, -5).Ctx()).int64(), -1);
  EXPECT_TRUE(bc2.Eval(Fixture(0, 5).Ctx()).is_null());
}

TEST(BytecodeVerifier, InListAndUnaries) {
  Schema bs = BaseSchema(), ds = DetailSchema();
  ExprPtr e = And(In(RCol("d_int"), {Value::Int64(1), Value::Int64(2)}),
                  Not(IsNull(BCol("b_int"))));
  BytecodeExpr bc = CompileVerified(e, bs, ds);
  EXPECT_TRUE(bc.Eval(Fixture(7, 2).Ctx()).IsTruthy());
  EXPECT_FALSE(bc.Eval(Fixture(7, 3).Ctx()).IsTruthy());
}

// ---------------------------------------------------------------------------
// Mutated-bytecode rejection corpus
// ---------------------------------------------------------------------------

/// Asserts the program is rejected and the FIRST error carries `expect`.
void ExpectRejected(const std::vector<Instr>& code, int num_literals,
                    int num_in_lists, int num_base, int num_detail,
                    VerifyErrorCode expect) {
  VerifierReport report =
      VerifyBytecodeProgram(code, num_literals, num_in_lists, num_base, num_detail);
  ASSERT_FALSE(report.ok()) << report.ToString();
  const VerifierDiagnostic* first = nullptr;
  for (const VerifierDiagnostic& d : report.diagnostics) {
    if (d.is_error) {
      first = &d;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->code, expect)
      << "want " << VerifyErrorCodeName(expect) << ", got:\n"
      << report.ToString();
  // Structured rejection, not a crash: the report converts to a Status whose
  // message carries the stable code.
  Status s = report.ToStatus();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(VerifyErrorCodeName(expect)), std::string::npos)
      << s.ToString();
}

TEST(VerifierRejects, EmptyProgram) {
  ExpectRejected({}, 0, 0, 2, 2, VerifyErrorCode::kEmptyProgram);
}

TEST(VerifierRejects, BadOpcode) {
  ExpectRejected({{static_cast<Op>(250), 0, 0}}, 0, 0, 2, 2,
                 VerifyErrorCode::kBadOpcode);
}

TEST(VerifierRejects, BadOperandClass) {
  // kCompare whose u8 names an arithmetic op (kAdd == 0) — type confusion
  // between the operand classes.
  ExpectRejected({{Op::kLoadBase, 0, 0},
                  {Op::kLoadBase, 0, 0},
                  {Op::kCompare, static_cast<uint8_t>(BinaryOp::kAdd), 0}},
                 0, 0, 2, 2, VerifyErrorCode::kBadOperandOp);
  // And the mirror image: kArith with a comparison op.
  ExpectRejected({{Op::kLoadBase, 0, 0},
                  {Op::kLoadBase, 0, 0},
                  {Op::kArith, static_cast<uint8_t>(BinaryOp::kLt), 0}},
                 0, 0, 2, 2, VerifyErrorCode::kBadOperandOp);
}

TEST(VerifierRejects, BadLiteralIndex) {
  ExpectRejected({{Op::kPushLit, 0, 3}}, 1, 0, 2, 2,
                 VerifyErrorCode::kBadLiteralIndex);
}

TEST(VerifierRejects, BadInListIndex) {
  ExpectRejected({{Op::kPushLit, 0, 0}, {Op::kIn, 0, 1}}, 1, 1, 2, 2,
                 VerifyErrorCode::kBadInListIndex);
}

TEST(VerifierRejects, BadColumnIndex) {
  ExpectRejected({{Op::kLoadDetail, 0, 9}}, 0, 0, 2, 2,
                 VerifyErrorCode::kBadColumnIndex);
  ExpectRejected({{Op::kLoadBase, 0, -1}}, 0, 0, 2, 2,
                 VerifyErrorCode::kBadColumnIndex);
}

TEST(VerifierRejects, MissingSide) {
  // Detail side absent from the evaluation context (negative column count).
  ExpectRejected({{Op::kLoadDetail, 0, 0}}, 0, 0, 2, -1,
                 VerifyErrorCode::kMissingSide);
}

TEST(VerifierRejects, WildJumpTarget) {
  ExpectRejected({{Op::kPushLit, 0, 0}, {Op::kJumpIfNotTruthy, 0, 77},
                  {Op::kPushLit, 0, 0}},
                 1, 0, 2, 2, VerifyErrorCode::kBadJumpTarget);
}

TEST(VerifierRejects, BackwardJump) {
  // A backward jump breaks the termination certificate.
  ExpectRejected({{Op::kPushLit, 0, 0}, {Op::kJumpIfNotTruthy, 0, 0},
                  {Op::kPushLit, 0, 0}},
                 1, 0, 2, 2, VerifyErrorCode::kBackwardJump);
}

TEST(VerifierRejects, StackUnderflow) {
  // kCompare pops two; only one value was pushed.
  ExpectRejected({{Op::kPushLit, 0, 0},
                  {Op::kCompare, static_cast<uint8_t>(BinaryOp::kEq), 0}},
                 1, 0, 2, 2, VerifyErrorCode::kStackUnderflow);
  // kNot on an empty stack.
  ExpectRejected({{Op::kNot, 0, 0}}, 0, 0, 2, 2, VerifyErrorCode::kStackUnderflow);
}

TEST(VerifierRejects, MergeDepthMismatch) {
  // pc3 is reached with depth 0 via the jump at pc1 but depth 1 by falling
  // through pc2 — inconsistent stack shape at a merge point.
  ExpectRejected({{Op::kPushLit, 0, 0},
                  {Op::kJumpIfNotTruthy, 0, 3},
                  {Op::kPushLit, 0, 0},
                  {Op::kPushLit, 0, 0}},
                 1, 0, 2, 2, VerifyErrorCode::kStackDepthMismatch);
}

TEST(VerifierRejects, BadResultArity) {
  // Halts with two values on the stack.
  ExpectRejected({{Op::kPushLit, 0, 0}, {Op::kPushLit, 0, 0}}, 1, 0, 2, 2,
                 VerifyErrorCode::kBadResultArity);
  // Halts with zero values.
  ExpectRejected({{Op::kPushLit, 0, 0}, {Op::kJumpIfNotTruthy, 0, 2}}, 1, 0, 2, 2,
                 VerifyErrorCode::kBadResultArity);
}

TEST(VerifierWarns, UnreachableCode) {
  // pc2 is skipped by the unconditional jump; the program is still valid.
  VerifierReport report = VerifyBytecodeProgram(
      {{Op::kPushLit, 0, 0}, {Op::kJump, 0, 3}, {Op::kPushLit, 0, 0}}, 1, 0, 2, 2);
  EXPECT_TRUE(report.ok()) << report.ToString();
  bool warned = false;
  for (const VerifierDiagnostic& d : report.diagnostics) {
    if (d.code == VerifyErrorCode::kUnreachableCode) {
      EXPECT_FALSE(d.is_error);
      EXPECT_EQ(d.pc, 2);
      warned = true;
    }
  }
  EXPECT_TRUE(warned) << report.ToString();
}

TEST(VerifierIntegration, MutatedCompiledProgramIsRejected) {
  // Take a real emitter program, then corrupt one jump target: rejection must
  // be structured, and the pristine program must still verify.
  Schema bs = BaseSchema(), ds = DetailSchema();
  ExprPtr e = And(Lt(RCol("d_int"), Lit(5)), Gt(BCol("b_int"), Lit(0)));
  Result<BytecodeExpr> bc = BytecodeExpr::Compile(e, &bs, &ds);
  ASSERT_TRUE(bc.ok());
  ASSERT_TRUE(VerifyBytecode(*bc, &bs, &ds).ok());

  std::vector<Instr> mutated = bc->code();
  bool found_jump = false;
  for (Instr& in : mutated) {
    if (in.op == Op::kAndJump || in.op == Op::kOrJump) {
      in.a = 1 << 20;  // wild forward target
      found_jump = true;
      break;
    }
  }
  ASSERT_TRUE(found_jump);
  VerifierReport report = VerifyBytecodeProgram(
      mutated, static_cast<int>(bc->literals().size()),
      static_cast<int>(bc->in_lists().size()), bs.num_fields(), ds.num_fields());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.ToStatus().ok());
}

TEST(VerifierIntegration, HardGateRejectsAtCompileTime) {
  // CompileExpr runs the verifier on every program it lowers; a passing θ
  // must still compile (the gate is transparent for valid programs). The
  // failing direction requires injecting a broken emitter and is covered by
  // the raw-parts corpus above.
  Schema bs = BaseSchema(), ds = DetailSchema();
  Result<CompiledExpr> compiled =
      CompileExpr(And(Lt(RCol("d_int"), Lit(5)), Eq(BCol("b_int"), RCol("d_int"))),
                  &bs, &ds);
  ASSERT_TRUE(compiled.ok());
}

}  // namespace
}  // namespace mdjoin
