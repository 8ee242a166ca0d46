#include "optimizer/cost.h"

#include <algorithm>
#include <optional>

#include "expr/conjuncts.h"
#include "stats/feedback.h"
#include "stats/table_stats.h"

namespace mdjoin {

namespace {

constexpr double kFilterSelectivity = 0.3;
constexpr double kDistinctRatio = 0.6;
constexpr double kCuboidRatio = 0.2;

std::optional<CmpOp> ToCmpOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return CmpOp::kEq;
    case BinaryOp::kNe: return CmpOp::kNe;
    case BinaryOp::kLt: return CmpOp::kLt;
    case BinaryOp::kLe: return CmpOp::kLe;
    case BinaryOp::kGt: return CmpOp::kGt;
    case BinaryOp::kGe: return CmpOp::kGe;
    default: return std::nullopt;
  }
}

/// `literal <op> column` is `column <flipped-op> literal`.
CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Statistics of the table a node ultimately scans, reached by looking
/// through operators that do not change which rows exist (σ keeps a subset,
/// π/sort keep all); null when the chain does not bottom out at an analyzed
/// scan.
const TableStats* StatsForInput(const PlanPtr& node, const Catalog& catalog) {
  const PlanNode* n = node.get();
  while (n != nullptr) {
    switch (n->kind()) {
      case PlanKind::kTableRef:
        return catalog.FindStats(n->table_name);
      case PlanKind::kFilter:
      case PlanKind::kProject:
      case PlanKind::kSort:
        n = n->child(0).get();
        break;
      default:
        return nullptr;
    }
  }
  return nullptr;
}

/// Selectivity of one conjunct. `column <op> literal` shapes (either
/// orientation) read the analyzed column; anything else falls back to the
/// documented constant.
double ConjunctSelectivity(const ExprPtr& conjunct, const TableStats& stats) {
  if (conjunct == nullptr || conjunct->kind() != ExprKind::kBinary) {
    return kFilterSelectivity;
  }
  std::optional<CmpOp> op = ToCmpOp(conjunct->binary_op());
  if (!op.has_value()) return kFilterSelectivity;
  const Expr* column = nullptr;
  const Expr* literal = nullptr;
  bool flipped = false;
  const Expr* l = conjunct->left().get();
  const Expr* r = conjunct->right().get();
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
    column = l;
    literal = r;
  } else if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
    column = r;
    literal = l;
    flipped = true;
  } else {
    return kFilterSelectivity;
  }
  const ColumnStats* cs = stats.FindColumn(column->column_name());
  if (cs == nullptr) return kFilterSelectivity;
  return cs->SelectivityCmp(flipped ? FlipCmp(*op) : *op, literal->literal());
}

double PredicateSelectivity(const ExprPtr& predicate, const TableStats* stats) {
  if (stats == nullptr) return kFilterSelectivity;
  double sel = 1.0;
  for (const ExprPtr& c : SplitConjuncts(predicate)) {
    sel *= ConjunctSelectivity(c, *stats);
  }
  return std::clamp(sel, 0.0, 1.0);
}

/// Product of the NDVs of `columns` (1 for none: the grand total's one
/// group), or nullopt when any column lacks statistics (callers then fall
/// back to the ratio constants). The product is the standard
/// independence-assumption group-count estimate; callers clamp it to the
/// input cardinality.
std::optional<double> NdvProduct(const TableStats* stats,
                                 const std::vector<std::string>& columns) {
  if (stats == nullptr) return std::nullopt;
  double product = 1.0;
  for (const std::string& name : columns) {
    const ColumnStats* cs = stats->FindColumn(name);
    if (cs == nullptr) return std::nullopt;
    product *= static_cast<double>(std::max<int64_t>(cs->ndv, 1));
  }
  return product;
}

Result<PlanCost> EstimateCostImpl(const PlanPtr& plan, const Catalog& catalog,
                                  const FeedbackStore* feedback);

/// Recursion entry point: structural estimate, then the feedback override —
/// a fingerprint that has been executed before uses its measured output
/// cardinality, which is what makes the second run of a repeated query
/// estimate better than the first.
Result<PlanCost> Estimate(const PlanPtr& plan, const Catalog& catalog,
                          const FeedbackStore* feedback) {
  MDJ_ASSIGN_OR_RETURN(PlanCost cost, EstimateCostImpl(plan, catalog, feedback));
  if (feedback != nullptr) {
    std::optional<FeedbackEntry> entry = feedback->Lookup(PlanFingerprint(plan));
    if (entry.has_value() && entry->output_rows >= 0) {
      cost.output_rows = entry->output_rows;
    }
  }
  return cost;
}

Result<PlanCost> EstimateCostImpl(const PlanPtr& plan, const Catalog& catalog,
                                  const FeedbackStore* feedback) {
  if (plan == nullptr) return Status::InvalidArgument("EstimateCost: null plan");
  switch (plan->kind()) {
    case PlanKind::kTableRef: {
      MDJ_ASSIGN_OR_RETURN(int64_t rows, catalog.LookupNumRows(plan->table_name));
      return PlanCost{static_cast<double>(rows), 0};
    }
    case PlanKind::kFilter: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      const double sel =
          PredicateSelectivity(plan->predicate, StatsForInput(plan->child(0), catalog));
      return PlanCost{child.output_rows * sel, child.work + child.output_rows};
    }
    case PlanKind::kProject: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      return PlanCost{child.output_rows, child.work + child.output_rows};
    }
    case PlanKind::kDistinct: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      double out = child.output_rows * kDistinctRatio;
      if (const TableStats* stats = StatsForInput(plan->child(0), catalog)) {
        // Distinct over all columns: NDV product, clamped to the input size.
        std::vector<std::string> columns;
        columns.reserve(stats->columns.size());
        for (const ColumnStats& c : stats->columns) columns.push_back(c.name);
        if (std::optional<double> ndv = NdvProduct(stats, columns)) {
          out = std::min(*ndv, child.output_rows);
        }
      }
      return PlanCost{out, child.work + child.output_rows};
    }
    case PlanKind::kUnion: {
      PlanCost total;
      for (const PlanPtr& c : plan->children()) {
        MDJ_ASSIGN_OR_RETURN(PlanCost cc, Estimate(c, catalog, feedback));
        total.output_rows += cc.output_rows;
        total.work += cc.work;
      }
      return total;
    }
    case PlanKind::kPartition: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      return PlanCost{child.output_rows / plan->partition_count,
                      child.work + child.output_rows};
    }
    case PlanKind::kHashJoin: {
      MDJ_ASSIGN_OR_RETURN(PlanCost l, Estimate(plan->child(0), catalog, feedback));
      MDJ_ASSIGN_OR_RETURN(PlanCost r, Estimate(plan->child(1), catalog, feedback));
      return PlanCost{std::max(l.output_rows, r.output_rows),
                      l.work + r.work + l.output_rows + r.output_rows};
    }
    case PlanKind::kMdJoin: {
      MDJ_ASSIGN_OR_RETURN(PlanCost b, Estimate(plan->child(0), catalog, feedback));
      MDJ_ASSIGN_OR_RETURN(PlanCost r, Estimate(plan->child(1), catalog, feedback));
      PlanCost cost;
      cost.output_rows = b.output_rows;
      cost.work = b.work + r.work + r.output_rows;  // ONE scan of R
      for (const MdJoinComponent& comp : plan->components) {
        // One indexed probe per tuple with an equi conjunct, else every pair.
        bool has_equi = !AnalyzeTheta(comp.theta).equi.empty();
        cost.work += has_equi ? r.output_rows : r.output_rows * b.output_rows;
      }
      cost.work += b.output_rows;
      return cost;
    }
    case PlanKind::kSort: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      return PlanCost{child.output_rows, child.work + 2 * child.output_rows};
    }
    case PlanKind::kCuboidBase: {
      MDJ_ASSIGN_OR_RETURN(PlanCost child, Estimate(plan->child(0), catalog, feedback));
      const TableStats* stats = StatsForInput(plan->child(0), catalog);
      double out = 0;
      for (CuboidMask mask : plan->cuboid_masks) {
        // Dims present in the cuboid (mask bit i <-> cube_dims[i]); the
        // absent ones are ALL, contributing factor 1.
        std::vector<std::string> present;
        for (size_t i = 0; i < plan->cube_dims.size(); ++i) {
          if ((mask >> i) & 1u) present.push_back(plan->cube_dims[i]);
        }
        std::optional<double> ndv = NdvProduct(stats, present);
        out += ndv ? std::min(*ndv, child.output_rows) : child.output_rows * kCuboidRatio;
      }
      // Every cuboid comes from one scan of the input.
      return PlanCost{out, child.work + child.output_rows};
    }
    case PlanKind::kEmptyRef:
      return PlanCost{0, 0};
  }
  return Status::Internal("unreachable plan kind");
}

}  // namespace

double QError(double estimated_rows, double actual_rows) {
  const double est = std::max(estimated_rows, 1.0);
  const double act = std::max(actual_rows, 1.0);
  return std::max(est / act, act / est);
}

uint64_t PlanFingerprint(const PlanPtr& plan) {
  return FingerprintString(ExplainPlan(plan));
}

Result<PlanCost> EstimateCost(const PlanPtr& plan, const Catalog& catalog) {
  return Estimate(plan, catalog, nullptr);
}

Result<PlanCost> EstimateCost(const PlanPtr& plan, const Catalog& catalog,
                              const FeedbackStore* feedback) {
  return Estimate(plan, catalog, feedback);
}

Result<size_t> ChooseCheapestPlan(const std::vector<PlanPtr>& alternatives,
                                  const Catalog& catalog) {
  if (alternatives.empty()) {
    return Status::InvalidArgument("ChooseCheapestPlan: no alternatives");
  }
  size_t best = 0;
  double best_work = 0;
  for (size_t i = 0; i < alternatives.size(); ++i) {
    MDJ_ASSIGN_OR_RETURN(PlanCost c, EstimateCost(alternatives[i], catalog));
    if (i == 0 || c.work < best_work) {
      best = i;
      best_work = c.work;
    }
  }
  return best;
}

}  // namespace mdjoin
