#ifndef MDJOIN_OPTIMIZER_PLAN_H_
#define MDJOIN_OPTIMIZER_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/agg_spec.h"
#include "common/result.h"
#include "core/generalized.h"
#include "cube/lattice.h"
#include "expr/expr.h"
#include "ra/join.h"
#include "ra/project.h"
#include "table/table.h"

namespace mdjoin {

/// Logical/physical plan node kinds. The tree is logical enough to rewrite
/// algebraically (the §4 theorems are tree transformations) and physical
/// enough to execute directly — appropriate for an in-memory engine.
enum class PlanKind {
  kTableRef,           // named input relation from the catalog
  kFilter,             // σ
  kProject,            // π (extended projection)
  kDistinct,           // duplicate elimination over all columns
  kUnion,              // bag union (concat) of same-schema children
  kPartition,          // slice i of an m-way row split of the child (Thm 4.1)
  kHashJoin,           // equijoin on named key columns
  kGroupBy,            // conventional Σ aggregation
  kMdJoin,             // MD(B, R, l, θ) — children: [base, detail]
  kGeneralizedMdJoin,  // MD(B, R, (l..), (θ..)) — children: [base, detail]
  kCubeBase,           // CUBE BY base-values generator over the child
  kCuboidBase,         // one cuboid of the child (π_{X,ALL..}) (Thm 4.5)
  kSort,               // order the child by named columns
  kEmptyRef,           // constant empty relation with a fixed schema
};

const char* PlanKindToString(PlanKind kind);

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// Immutable plan node; rewrites build new trees and share unchanged
/// subtrees. Payload fields are public and set by the factory functions below
/// (the node is const after construction).
class PlanNode {
 public:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}

  PlanKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(int i) const { return children_[static_cast<size_t>(i)]; }

  // --- payloads (validity depends on kind) ---
  std::string table_name;                    // kTableRef
  ExprPtr predicate;                         // kFilter
  std::vector<ProjectItem> projections;      // kProject
  int partition_index = 0;                   // kPartition
  int partition_count = 1;                   // kPartition
  std::vector<std::string> left_keys;        // kHashJoin
  std::vector<std::string> right_keys;       // kHashJoin
  JoinType join_type = JoinType::kInner;     // kHashJoin
  std::vector<std::string> group_columns;    // kGroupBy
  std::vector<AggSpec> aggs;                 // kGroupBy, kMdJoin
  ExprPtr theta;                             // kMdJoin
  std::vector<MdJoinComponent> components;   // kGeneralizedMdJoin
  std::vector<std::string> cube_dims;        // kCubeBase, kCuboidBase
  CuboidMask cuboid_mask = 0;                // kCuboidBase
  std::vector<std::string> sort_columns;     // kSort
  std::vector<bool> sort_ascending;          // kSort (parallel to sort_columns)
  std::shared_ptr<const Schema> empty_schema;  // kEmptyRef

  /// One-line description of this node (no children).
  std::string Label() const;

 private:
  friend PlanPtr MakeNode(PlanKind, std::vector<PlanPtr>);

  PlanKind kind_;
  std::vector<PlanPtr> children_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PlanPtr TableRef(std::string name);
PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate);
PlanPtr ProjectPlan(PlanPtr child, std::vector<ProjectItem> items);
PlanPtr DistinctPlan(PlanPtr child);
PlanPtr UnionPlan(std::vector<PlanPtr> children);
PlanPtr PartitionPlan(PlanPtr child, int index, int count);
PlanPtr HashJoinPlan(PlanPtr left, PlanPtr right, std::vector<std::string> left_keys,
                     std::vector<std::string> right_keys,
                     JoinType type = JoinType::kInner);
PlanPtr GroupByPlan(PlanPtr child, std::vector<std::string> group_columns,
                    std::vector<AggSpec> aggs);
PlanPtr MdJoinPlan(PlanPtr base, PlanPtr detail, std::vector<AggSpec> aggs,
                   ExprPtr theta);
PlanPtr GeneralizedMdJoinPlan(PlanPtr base, PlanPtr detail,
                              std::vector<MdJoinComponent> components);
PlanPtr CubeBasePlan(PlanPtr child, std::vector<std::string> dims);
PlanPtr CuboidBasePlan(PlanPtr child, std::vector<std::string> dims, CuboidMask mask);

PlanPtr SortPlan(PlanPtr child, std::vector<std::string> columns,
                 std::vector<bool> ascending = {});

/// Leaf producing zero rows with `schema`. Rewrites substitute it for a
/// subtree proven to contribute nothing (e.g. the detail child of an MD-join
/// whose θ is statically unsatisfiable) while keeping the plan type-correct.
PlanPtr EmptyRefPlan(Schema schema);

/// Copy of `node` with its children replaced (payload preserved). The
/// building block for rewrites that recurse through unchanged operators.
PlanPtr CloneWithChildren(const PlanPtr& node, std::vector<PlanPtr> children);

/// A plan σ_p1(…σ_pk(inner)…) whose selections read R only, peeled down to
/// `inner`: the Filters an MD-join's θ or a base generator's kernels may run
/// instead (Theorem 4.2 read right to left). `conjuncts` are those of
/// pk … p1, innermost first. Peeling stops early at a node `stop` accepts.
struct DetailSelections {
  PlanPtr inner;
  std::vector<ExprPtr> conjuncts;
};
DetailSelections PeelDetailSelections(
    const PlanPtr& plan, const std::function<bool(const PlanPtr&)>& stop = nullptr);

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// Name → relation binding used at execution and schema-inference time. Holds
/// non-owning pointers; the caller keeps the relations alive.
///
/// Two kinds share one namespace: in-memory Tables and paged block files
/// (storage/paged_table). The plan layer must not link against storage
/// (storage sits above it), so paged entries carry their schema and row count
/// by value and the PagedTable pointer stays opaque here — the executor,
/// which does link storage, is the only consumer that dereferences it.
/// Registration sites use RegisterPagedTable (storage/out_of_core.h), which
/// fills the redundant fields from the table itself.
class Catalog {
 public:
  Status Register(std::string name, const Table* table);
  Status RegisterPaged(std::string name, const class PagedTable* table,
                       Schema schema, int64_t num_rows);

  /// In-memory binding only; NotFound for paged names (callers that can only
  /// consume a Table use LookupSchema/LookupNumRows or the executor's
  /// materialization fallback instead).
  Result<const Table*> Lookup(const std::string& name) const;
  /// The paged binding, or null when `name` is unbound or in-memory.
  const class PagedTable* FindPaged(const std::string& name) const;

  /// Schema / cardinality of either kind of binding.
  Result<const Schema*> LookupSchema(const std::string& name) const;
  Result<int64_t> LookupNumRows(const std::string& name) const;

  /// Attaches AnalyzeTable statistics to an already-registered name. The
  /// pointer stays opaque here for the same layering reason as PagedTable —
  /// the plan layer must not link against stats; the cost model (which does)
  /// is the only consumer that dereferences it. Re-registering overwrites:
  /// a fresh ANALYZE supersedes the old scan.
  Status RegisterStats(const std::string& name, const class TableStats* stats);
  /// The statistics binding, or null when `name` has none.
  const class TableStats* FindStats(const std::string& name) const;

  std::vector<std::string> TableNames() const;

 private:
  struct PagedEntry {
    const class PagedTable* table = nullptr;
    Schema schema;
    int64_t num_rows = 0;
  };
  std::unordered_map<std::string, const Table*> tables_;
  std::unordered_map<std::string, PagedEntry> paged_;
  std::unordered_map<std::string, const class TableStats*> stats_;
};

/// Output schema of `plan` against `catalog`, without executing. Errors on
/// unbound names or type mismatches — running this is the plan's type check.
Result<Schema> InferSchema(const PlanPtr& plan, const Catalog& catalog);

/// Renders the plan tree, one node per line, children indented.
std::string ExplainPlan(const PlanPtr& plan);

}  // namespace mdjoin

#endif  // MDJOIN_OPTIMIZER_PLAN_H_
