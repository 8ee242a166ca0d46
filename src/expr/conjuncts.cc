#include "expr/conjuncts.h"

#include <set>

#include "expr/compile.h"

namespace mdjoin {

namespace {

bool IsLiteralTrue(const ExprPtr& e) {
  return e->kind() == ExprKind::kLiteral && e->literal().IsTruthy();
}
bool IsLiteralFalse(const ExprPtr& e) {
  return e->kind() == ExprKind::kLiteral && e->literal().is_int64() &&
         e->literal().int64() == 0;
}

}  // namespace

ExprPtr FoldConstants(const ExprPtr& expr) {
  if (expr == nullptr) return expr;
  // A leaf or a column-free subtree folds to its value outright.
  bool has_columns =
      expr->ReferencesSide(Side::kBase) || expr->ReferencesSide(Side::kDetail);
  if (!has_columns && expr->kind() != ExprKind::kLiteral) {
    Result<Value> v = EvalConstExpr(expr);
    if (v.ok()) return Expr::Literal(std::move(*v));
    return expr;  // un-evaluable constants (shouldn't happen) stay put
  }
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return expr;
    case ExprKind::kUnary:
      return Expr::Unary(expr->unary_op(), FoldConstants(expr->operand()));
    case ExprKind::kIn:
      return Expr::In(FoldConstants(expr->operand()), expr->candidates());
    case ExprKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when, then] : expr->when_then()) {
        arms.emplace_back(FoldConstants(when), FoldConstants(then));
      }
      return Expr::Case(std::move(arms), expr->else_expr() == nullptr
                                             ? nullptr
                                             : FoldConstants(expr->else_expr()));
    }
    case ExprKind::kBinary: {
      ExprPtr left = FoldConstants(expr->left());
      ExprPtr right = FoldConstants(expr->right());
      // Boolean identities for the connectives.
      if (expr->binary_op() == BinaryOp::kAnd) {
        if (IsLiteralTrue(left)) return right;
        if (IsLiteralTrue(right)) return left;
        if (IsLiteralFalse(left) || IsLiteralFalse(right)) return dsl::False();
      }
      if (expr->binary_op() == BinaryOp::kOr) {
        if (IsLiteralFalse(left)) return right;
        if (IsLiteralFalse(right)) return left;
        if (IsLiteralTrue(left) || IsLiteralTrue(right)) return dsl::True();
      }
      return Expr::Binary(expr->binary_op(), std::move(left), std::move(right));
    }
  }
  return expr;
}

namespace {

void SplitRec(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary && expr->binary_op() == BinaryOp::kAnd) {
    SplitRec(expr->left(), out);
    SplitRec(expr->right(), out);
    return;
  }
  // Drop literal TRUE conjuncts.
  if (expr->kind() == ExprKind::kLiteral && expr->literal().IsTruthy()) return;
  out->push_back(expr);
}

}  // namespace

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr != nullptr) SplitRec(expr, &out);
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return dsl::True();
  ExprPtr out = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = Expr::Binary(BinaryOp::kAnd, std::move(out), conjuncts[i]);
  }
  return out;
}

ThetaParts AnalyzeTheta(const ExprPtr& theta) {
  ThetaParts parts;
  for (const ExprPtr& c : SplitConjuncts(theta)) {
    bool uses_base = c->ReferencesSide(Side::kBase);
    bool uses_detail = c->ReferencesSide(Side::kDetail);
    if (!uses_base && uses_detail) {
      parts.detail_only.push_back(c);
      continue;
    }
    if (uses_base && !uses_detail) {
      parts.base_only.push_back(c);
      continue;
    }
    if (!uses_base && !uses_detail) {
      // Constant conjunct (rare); keep as residual so it still gets applied.
      parts.residual.push_back(c);
      continue;
    }
    // Mixed conjunct: an equality with each operand on exactly one side is an
    // equi pair; anything else is residual.
    if (c->kind() == ExprKind::kBinary && c->binary_op() == BinaryOp::kEq) {
      const ExprPtr& l = c->left();
      const ExprPtr& r = c->right();
      bool l_base = l->ReferencesSide(Side::kBase);
      bool l_detail = l->ReferencesSide(Side::kDetail);
      bool r_base = r->ReferencesSide(Side::kBase);
      bool r_detail = r->ReferencesSide(Side::kDetail);
      if (l_base && !l_detail && r_detail && !r_base) {
        parts.equi.push_back({l, r});
        continue;
      }
      if (r_base && !r_detail && l_detail && !l_base) {
        parts.equi.push_back({r, l});
        continue;
      }
    }
    parts.residual.push_back(c);
  }
  return parts;
}

const char* DimensionEqualityFailure(const std::vector<EquiPair>& equi,
                                     const std::vector<std::string>& dims) {
  std::set<std::string> seen;
  for (const EquiPair& p : equi) {
    if (p.base_expr->kind() != ExprKind::kColumnRef ||
        p.detail_expr->kind() != ExprKind::kColumnRef ||
        p.base_expr->column_name() != p.detail_expr->column_name()) {
      return "equi conjunct is not a plain B.d = R.d dimension pair";
    }
    seen.insert(p.base_expr->column_name());
  }
  if (seen != std::set<std::string>(dims.begin(), dims.end())) {
    return "θ's dimension set does not match the base's dimensions";
  }
  return nullptr;
}

ExprPtr CombineTheta(const ThetaParts& parts) {
  std::vector<ExprPtr> all;
  for (const EquiPair& p : parts.equi) {
    all.push_back(Expr::Binary(BinaryOp::kEq, p.base_expr, p.detail_expr));
  }
  all.insert(all.end(), parts.detail_only.begin(), parts.detail_only.end());
  all.insert(all.end(), parts.base_only.begin(), parts.base_only.end());
  all.insert(all.end(), parts.residual.begin(), parts.residual.end());
  return CombineConjuncts(std::move(all));
}

}  // namespace mdjoin
