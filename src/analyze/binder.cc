#include "analyze/binder.h"

#include <map>
#include <set>

#include "analyze/parser.h"
#include "cube/lattice.h"
#include "expr/conjuncts.h"

namespace mdjoin {
namespace analyze {

namespace {

/// One MD-join in the emitted chain: the default (unqualified) component or a
/// grouping variable.
struct Component {
  std::string var;  // "" for the default component
  ExprPtr theta;
  std::vector<AggSpec> aggs;
  std::set<std::string> output_names;  // for visibility checks downstream
};

struct BinderState {
  const Query* query;
  const Catalog* catalog;
  Schema detail_schema;
  std::set<std::string> attrs;          // analyze-by attributes
  std::vector<Component> components;    // [0] is the default component
  std::map<std::string, size_t> component_of_var;
  int hidden_counter = 0;
};

BinaryOp LowerBinaryOp(AstBinaryOp op) {
  switch (op) {
    case AstBinaryOp::kAdd:
      return BinaryOp::kAdd;
    case AstBinaryOp::kSub:
      return BinaryOp::kSub;
    case AstBinaryOp::kMul:
      return BinaryOp::kMul;
    case AstBinaryOp::kDiv:
      return BinaryOp::kDiv;
    case AstBinaryOp::kMod:
      return BinaryOp::kMod;
    case AstBinaryOp::kEq:
      return BinaryOp::kEq;
    case AstBinaryOp::kNe:
      return BinaryOp::kNe;
    case AstBinaryOp::kLt:
      return BinaryOp::kLt;
    case AstBinaryOp::kLe:
      return BinaryOp::kLe;
    case AstBinaryOp::kGt:
      return BinaryOp::kGt;
    case AstBinaryOp::kGe:
      return BinaryOp::kGe;
    case AstBinaryOp::kAnd:
      return BinaryOp::kAnd;
    case AstBinaryOp::kOr:
      return BinaryOp::kOr;
  }
  return BinaryOp::kAnd;
}

UnaryOp LowerUnaryOp(AstUnaryOp op) {
  switch (op) {
    case AstUnaryOp::kNot:
      return UnaryOp::kNot;
    case AstUnaryOp::kNegate:
      return UnaryOp::kNegate;
    case AstUnaryOp::kIsNull:
      return UnaryOp::kIsNull;
  }
  return UnaryOp::kNot;
}

/// Collects the grouping-variable qualifiers appearing in `e` (ignoring
/// nested aggregate calls, which bind their own frame).
void CollectQualifiers(const AstExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind == AstKind::kColumnRef) {
    if (!e->qualifier.empty()) out->insert(e->qualifier);
    return;
  }
  if (e->kind == AstKind::kAggCall) return;  // separate frame
  CollectQualifiers(e->left, out);
  CollectQualifiers(e->right, out);
  for (const auto& [when, then] : e->case_arms) {
    CollectQualifiers(when, out);
    CollectQualifiers(then, out);
  }
}

/// Lowers a single-frame scalar expression where column references resolve
/// against the detail tuple of variable `var` (qualified `var.col` or, when
/// `allow_unqualified_detail`, bare `col`) — used for WHERE clauses and
/// aggregate arguments.
Result<ExprPtr> LowerDetailScalar(const BinderState& state, const AstExprPtr& e,
                                  const std::string& var,
                                  bool allow_unqualified_detail) {
  switch (e->kind) {
    case AstKind::kLiteral:
      return Expr::Literal(e->literal);
    case AstKind::kColumnRef: {
      if (!e->qualifier.empty() && e->qualifier != var) {
        return Status::BindError("reference to '", e->qualifier, ".", e->column,
                                 "' is not valid in this context (expected '",
                                 var.empty() ? "<unqualified>" : var, "')");
      }
      if (e->qualifier.empty() && !allow_unqualified_detail) {
        return Status::BindError("unqualified column '", e->column,
                                 "' is not valid inside this aggregate argument; "
                                 "qualify it with the grouping variable");
      }
      MDJ_ASSIGN_OR_RETURN(int idx, state.detail_schema.GetFieldIndex(e->column));
      (void)idx;
      return Expr::ColumnRef(Side::kDetail, e->column);
    }
    case AstKind::kUnary: {
      MDJ_ASSIGN_OR_RETURN(
          ExprPtr operand,
          LowerDetailScalar(state, e->left, var, allow_unqualified_detail));
      return Expr::Unary(LowerUnaryOp(e->unary_op), std::move(operand));
    }
    case AstKind::kBinary: {
      MDJ_ASSIGN_OR_RETURN(ExprPtr l,
                           LowerDetailScalar(state, e->left, var,
                                             allow_unqualified_detail));
      MDJ_ASSIGN_OR_RETURN(ExprPtr r,
                           LowerDetailScalar(state, e->right, var,
                                             allow_unqualified_detail));
      return Expr::Binary(LowerBinaryOp(e->binary_op), std::move(l), std::move(r));
    }
    case AstKind::kIn: {
      MDJ_ASSIGN_OR_RETURN(
          ExprPtr operand,
          LowerDetailScalar(state, e->left, var, allow_unqualified_detail));
      return Expr::In(std::move(operand), e->in_list);
    }
    case AstKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when_ast, then_ast] : e->case_arms) {
        MDJ_ASSIGN_OR_RETURN(
            ExprPtr when,
            LowerDetailScalar(state, when_ast, var, allow_unqualified_detail));
        MDJ_ASSIGN_OR_RETURN(
            ExprPtr then,
            LowerDetailScalar(state, then_ast, var, allow_unqualified_detail));
        arms.emplace_back(std::move(when), std::move(then));
      }
      ExprPtr else_expr;
      if (e->left != nullptr) {
        MDJ_ASSIGN_OR_RETURN(
            else_expr, LowerDetailScalar(state, e->left, var, allow_unqualified_detail));
      }
      return Expr::Case(std::move(arms), std::move(else_expr));
    }
    case AstKind::kAggCall:
      return Status::BindError("aggregate call not allowed inside this expression");
  }
  return Status::Internal("unreachable AST kind");
}

/// Registers an aggregate call on component `comp_index`, returning the
/// output column name (existing one when the same call was added before).
Result<std::string> AddAggregate(BinderState* state, size_t comp_index,
                                 const AstExprPtr& call,
                                 const std::string& explicit_name) {
  Component& comp = state->components[comp_index];
  MDJ_ASSIGN_OR_RETURN(const AggregateFunction* fn,
                       AggregateRegistry::Global()->Lookup(call->agg_name));
  (void)fn;
  ExprPtr arg;
  if (!call->agg_star) {
    MDJ_ASSIGN_OR_RETURN(
        arg, LowerDetailScalar(*state, call->left, comp.var,
                               /*allow_unqualified_detail=*/comp.var.empty()));
  }
  std::string name = explicit_name;
  if (name.empty()) {
    // Deduplicate identical calls (common when a condition and the SELECT
    // list both mention avg(X.sale)).
    // Within a component, count(*) and count(X.*) for this component's own
    // variable X are the same aggregate; normalize the signature to "*".
    std::string signature =
        call->agg_name + "(" + (arg ? arg->ToString() : std::string("*")) + ")";
    for (const AggSpec& existing : comp.aggs) {
      std::string have =
          existing.function + "(" +
          (existing.argument ? existing.argument->ToString() : "*") + ")";
      if (have == signature) return existing.output_name;
    }
    // Derived name: fn_col for simple arguments, fn_<n> otherwise, prefixed
    // with the variable for qualified aggregates.
    name = call->agg_name;
    if (!comp.var.empty()) name += "_" + comp.var;
    if (arg != nullptr && call->left->kind == AstKind::kColumnRef) {
      name += "_" + call->left->column;
    } else if (arg != nullptr) {
      name += "_expr" + std::to_string(state->hidden_counter++);
    }
  }
  // Uniquify across all components.
  for (const Component& c : state->components) {
    if (c.output_names.count(name)) {
      if (!explicit_name.empty()) {
        return Status::BindError("duplicate output column '", name, "'");
      }
      name += "_" + std::to_string(state->hidden_counter++);
    }
  }
  comp.aggs.push_back(AggSpec{call->agg_name, arg, name});
  comp.output_names.insert(name);
  return name;
}

/// Lowers a SUCH THAT condition for the binding at `comp_index`: unqualified
/// names are base attributes (or outputs of earlier components), `var.col`
/// is the detail tuple, and aggregate calls over earlier variables become
/// hidden base columns.
Result<ExprPtr> LowerCondition(BinderState* state, size_t comp_index,
                               const AstExprPtr& e) {
  const std::string& var = state->components[comp_index].var;
  switch (e->kind) {
    case AstKind::kLiteral:
      return Expr::Literal(e->literal);
    case AstKind::kColumnRef: {
      if (e->qualifier.empty()) {
        // Base attribute or an earlier component's output.
        if (state->attrs.count(e->column)) {
          return Expr::ColumnRef(Side::kBase, e->column);
        }
        for (size_t i = 0; i < comp_index; ++i) {
          if (state->components[i].output_names.count(e->column)) {
            return Expr::ColumnRef(Side::kBase, e->column);
          }
        }
        return Status::BindError(
            "unqualified name '", e->column,
            "' is neither an ANALYZE BY attribute nor an earlier aggregate output");
      }
      if (e->qualifier == var) return Expr::ColumnRef(Side::kDetail, e->column);
      return Status::BindError("condition for variable '", var,
                               "' may not reference tuples of variable '",
                               e->qualifier, "' directly; aggregate them instead");
    }
    case AstKind::kUnary: {
      MDJ_ASSIGN_OR_RETURN(ExprPtr operand, LowerCondition(state, comp_index, e->left));
      return Expr::Unary(LowerUnaryOp(e->unary_op), std::move(operand));
    }
    case AstKind::kBinary: {
      MDJ_ASSIGN_OR_RETURN(ExprPtr l, LowerCondition(state, comp_index, e->left));
      MDJ_ASSIGN_OR_RETURN(ExprPtr r, LowerCondition(state, comp_index, e->right));
      return Expr::Binary(LowerBinaryOp(e->binary_op), std::move(l), std::move(r));
    }
    case AstKind::kIn: {
      MDJ_ASSIGN_OR_RETURN(ExprPtr operand, LowerCondition(state, comp_index, e->left));
      return Expr::In(std::move(operand), e->in_list);
    }
    case AstKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> arms;
      for (const auto& [when_ast, then_ast] : e->case_arms) {
        MDJ_ASSIGN_OR_RETURN(ExprPtr when, LowerCondition(state, comp_index, when_ast));
        MDJ_ASSIGN_OR_RETURN(ExprPtr then, LowerCondition(state, comp_index, then_ast));
        arms.emplace_back(std::move(when), std::move(then));
      }
      ExprPtr else_expr;
      if (e->left != nullptr) {
        MDJ_ASSIGN_OR_RETURN(else_expr, LowerCondition(state, comp_index, e->left));
      }
      return Expr::Case(std::move(arms), std::move(else_expr));
    }
    case AstKind::kAggCall: {
      // avg(X.sale): which variable does the argument aggregate?
      std::set<std::string> quals;
      CollectQualifiers(e->left, &quals);
      if (e->agg_star && !e->star_qualifier.empty()) {
        quals.insert(e->star_qualifier);  // count(X.*) counts X's tuples
      } else if (e->agg_star) {
        return Status::BindError(
            "count(*) inside a condition must qualify a variable, e.g. count(X.*)");
      }
      if (quals.size() != 1) {
        return Status::BindError("aggregate in a condition must reference exactly one "
                                 "grouping variable, e.g. avg(X.sale)");
      }
      const std::string& target = *quals.begin();
      auto it = state->component_of_var.find(target);
      if (it == state->component_of_var.end()) {
        return Status::BindError("unknown grouping variable '", target, "'");
      }
      if (it->second >= comp_index) {
        return Status::BindError("variable '", target,
                                 "' is not defined before '", var,
                                 "'; aggregates may only reference earlier variables");
      }
      MDJ_ASSIGN_OR_RETURN(std::string hidden,
                           AddAggregate(state, it->second, e, /*explicit_name=*/""));
      return Expr::ColumnRef(Side::kBase, hidden);
    }
  }
  return Status::Internal("unreachable AST kind");
}

/// A generator of cuboids names each attribute by one bit of a CuboidMask.
Status CheckCuboidWidth(const char* generator, const std::vector<std::string>& attrs) {
  if (attrs.size() <= kMaxCuboidDims) return Status::OK();
  return Status::BindError(generator, " takes at most ", kMaxCuboidDims,
                           " attributes, got ", attrs.size());
}

Result<PlanPtr> BuildBasePlan(const BinderState& state, const PlanPtr& detail_plan) {
  const BaseGen& gen = state.query->base;
  switch (gen.kind) {
    case BaseGenKind::kGroup: {
      // The cube's core cuboid (Gray et al.): the distinct attrs of R in
      // first-occurrence order, the rows Distinct(Project(R)) gives. A list
      // wider than a cuboid mask binds to that dedup itself.
      if (gen.attrs.size() <= kMaxCuboidDims) {
        return CuboidBasePlan(detail_plan, gen.attrs, PrefixMask(gen.attrs.size()));
      }
      std::vector<ProjectItem> items;
      for (const std::string& a : gen.attrs) {
        items.push_back({Expr::ColumnRef(Side::kDetail, a), a});
      }
      return DistinctPlan(ProjectPlan(detail_plan, std::move(items)));
    }
    case BaseGenKind::kCube:
      if (gen.attrs.size() > kMaxCubeDims) {
        return Status::BindError("cube takes at most ", kMaxCubeDims, " attributes, got ",
                                 gen.attrs.size());
      }
      return CubeBasePlan(detail_plan, gen.attrs);
    case BaseGenKind::kRollup: {
      MDJ_RETURN_NOT_OK(CheckCuboidWidth("rollup", gen.attrs));
      std::vector<CuboidMask> masks;
      for (int k = static_cast<int>(gen.attrs.size()); k >= 0; --k) {
        masks.push_back(PrefixMask(static_cast<size_t>(k)));
      }
      return CuboidBasePlan(detail_plan, gen.attrs, std::move(masks));
    }
    case BaseGenKind::kUnpivot: {
      MDJ_RETURN_NOT_OK(CheckCuboidWidth("unpivot", gen.attrs));
      std::vector<CuboidMask> masks;
      for (size_t i = 0; i < gen.attrs.size(); ++i) masks.push_back(CuboidMask{1} << i);
      return CuboidBasePlan(detail_plan, gen.attrs, std::move(masks));
    }
    case BaseGenKind::kGroupingSets: {
      MDJ_RETURN_NOT_OK(CheckCuboidWidth("grouping_sets", gen.attrs));
      std::vector<CuboidMask> masks;
      for (const std::vector<std::string>& set : gen.sets) {
        CuboidMask mask = 0;
        for (const std::string& a : set) {
          for (size_t i = 0; i < gen.attrs.size(); ++i) {
            if (gen.attrs[i] == a) mask |= CuboidMask{1} << i;
          }
        }
        masks.push_back(mask);
      }
      return CuboidBasePlan(detail_plan, gen.attrs, std::move(masks));
    }
    case BaseGenKind::kTable: {
      // Example 2.4: base values handed in as a table. Normalize column order
      // to the declared attribute list.
      std::vector<ProjectItem> items;
      for (const std::string& a : gen.attrs) {
        items.push_back({Expr::ColumnRef(Side::kDetail, a), a});
      }
      return ProjectPlan(TableRef(gen.table_name), std::move(items));
    }
  }
  return Status::Internal("unreachable generator kind");
}

}  // namespace

Result<BoundQuery> BindQuery(const Query& query, const Catalog& catalog) {
  BinderState state;
  state.query = &query;
  state.catalog = &catalog;

  // Detail relation (+ WHERE).
  PlanPtr detail_plan = TableRef(query.from_table);
  MDJ_ASSIGN_OR_RETURN(state.detail_schema, InferSchema(detail_plan, catalog));
  if (query.where != nullptr) {
    MDJ_ASSIGN_OR_RETURN(ExprPtr where,
                         LowerDetailScalar(state, query.where, /*var=*/"",
                                           /*allow_unqualified_detail=*/true));
    detail_plan = FilterPlan(detail_plan, std::move(where));
  }

  // ANALYZE BY attributes must exist on the detail relation (for kTable
  // generators they must also exist on the base table; InferSchema of the
  // base plan checks that below).
  if (query.base.attrs.empty()) {
    return Status::BindError("ANALYZE BY needs at least one attribute");
  }
  for (const std::string& a : query.base.attrs) {
    MDJ_ASSIGN_OR_RETURN(int idx, state.detail_schema.GetFieldIndex(a));
    (void)idx;
    if (!state.attrs.insert(a).second) {
      return Status::BindError("attribute '", a, "' is repeated in ANALYZE BY");
    }
  }

  MDJ_ASSIGN_OR_RETURN(PlanPtr base_plan, BuildBasePlan(state, detail_plan));
  MDJ_ASSIGN_OR_RETURN(Schema base_schema, InferSchema(base_plan, catalog));
  (void)base_schema;

  // Component 0: the default (unqualified) grouping — θ is attribute
  // equality, the classical GROUP BY link.
  {
    Component def;
    std::vector<ExprPtr> eqs;
    for (const std::string& a : query.base.attrs) {
      eqs.push_back(Expr::Binary(BinaryOp::kEq, Expr::ColumnRef(Side::kBase, a),
                                 Expr::ColumnRef(Side::kDetail, a)));
    }
    def.theta = CombineConjuncts(std::move(eqs));
    state.components.push_back(std::move(def));
  }
  // One component per SUCH THAT binding, in declaration order.
  for (const Binding& b : query.bindings) {
    if (b.var.empty() || state.component_of_var.count(b.var)) {
      return Status::BindError("duplicate or empty grouping-variable name '", b.var,
                               "'");
    }
    Component comp;
    comp.var = b.var;
    state.component_of_var[b.var] = state.components.size();
    state.components.push_back(std::move(comp));
  }
  // Lower conditions (may add hidden aggregates to earlier components).
  for (const Binding& b : query.bindings) {
    size_t idx = state.component_of_var[b.var];
    MDJ_ASSIGN_OR_RETURN(ExprPtr theta, LowerCondition(&state, idx, b.condition));
    state.components[idx].theta = std::move(theta);
  }

  // SELECT list: resolve columns and attach aggregates to components.
  std::vector<std::string> output_columns;
  for (const SelectItem& item : query.select) {
    if (item.expr->kind == AstKind::kColumnRef) {
      if (!item.expr->qualifier.empty()) {
        return Status::BindError("SELECT columns must be unqualified attributes");
      }
      if (!state.attrs.count(item.expr->column)) {
        return Status::BindError("SELECT column '", item.expr->column,
                                 "' is not an ANALYZE BY attribute");
      }
      output_columns.push_back(item.alias.value_or(item.expr->column));
      continue;
    }
    // Aggregate call: route to the right component.
    std::set<std::string> quals;
    CollectQualifiers(item.expr->left, &quals);
    if (item.expr->agg_star && !item.expr->star_qualifier.empty()) {
      quals.insert(item.expr->star_qualifier);  // count(X.*)
    }
    size_t comp_index = 0;
    if (quals.size() == 1) {
      auto it = state.component_of_var.find(*quals.begin());
      if (it == state.component_of_var.end()) {
        return Status::BindError("unknown grouping variable '", *quals.begin(), "'");
      }
      comp_index = it->second;
    } else if (!quals.empty()) {
      return Status::BindError(
          "an aggregate may reference at most one grouping variable");
    }
    MDJ_ASSIGN_OR_RETURN(
        std::string name,
        AddAggregate(&state, comp_index, item.expr, item.alias.value_or("")));
    output_columns.push_back(std::move(name));
  }

  // Emit the MD-join chain (components with no aggregates contribute nothing
  // and are skipped).
  PlanPtr current = base_plan;
  for (const Component& comp : state.components) {
    if (comp.aggs.empty()) continue;
    current = MdJoinPlan(current, detail_plan, comp.aggs, comp.theta);
  }

  // Final projection: the SELECT list in order. Renames attribute aliases
  // and hides internal columns.
  std::vector<ProjectItem> final_items;
  for (size_t i = 0; i < query.select.size(); ++i) {
    const SelectItem& item = query.select[i];
    std::string source = item.expr->kind == AstKind::kColumnRef ? item.expr->column
                                                                : output_columns[i];
    final_items.push_back({Expr::ColumnRef(Side::kDetail, source), output_columns[i]});
  }
  BoundQuery bound;
  bound.plan = ProjectPlan(std::move(current), std::move(final_items));
  bound.output_columns = std::move(output_columns);

  // HAVING: a post-aggregation filter over the SELECT outputs.
  if (query.having != nullptr) {
    MDJ_ASSIGN_OR_RETURN(Schema out_schema, InferSchema(bound.plan, catalog));
    BinderState having_state = state;
    having_state.detail_schema = out_schema;
    MDJ_ASSIGN_OR_RETURN(ExprPtr having,
                         LowerDetailScalar(having_state, query.having, /*var=*/"",
                                           /*allow_unqualified_detail=*/true));
    bound.plan = FilterPlan(bound.plan, std::move(having));
  }

  // ORDER BY: output columns only.
  if (!query.order_by.empty()) {
    std::vector<std::string> columns;
    std::vector<bool> ascending;
    for (const OrderItem& item : query.order_by) {
      bool known = false;
      for (const std::string& out : bound.output_columns) known = known || out == item.column;
      if (!known) {
        return Status::BindError("ORDER BY column '", item.column,
                                 "' is not in the SELECT list");
      }
      columns.push_back(item.column);
      ascending.push_back(item.ascending);
    }
    bound.plan = SortPlan(bound.plan, std::move(columns), std::move(ascending));
  }

  // Type-check the whole plan before returning it.
  MDJ_ASSIGN_OR_RETURN(Schema final_schema, InferSchema(bound.plan, catalog));
  (void)final_schema;
  return bound;
}

Result<BoundQuery> BindQueryString(const std::string& sql, const Catalog& catalog) {
  MDJ_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  return BindQuery(query, catalog);
}

Result<BoundQuery> BindEmfQueryString(const std::string& sql, const Catalog& catalog) {
  MDJ_ASSIGN_OR_RETURN(Query query, ParseEmfQuery(sql));
  return BindQuery(query, catalog);
}

}  // namespace analyze
}  // namespace mdjoin
