#include "optimizer/plan.h"

#include <bit>

#include "common/logging.h"
#include "cube/base_tables.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"

namespace mdjoin {

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kTableRef:
      return "TableRef";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kPartition:
      return "Partition";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kMdJoin:
      return "MdJoin";
    case PlanKind::kCuboidBase:
      return "CuboidBase";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kEmptyRef:
      return "EmptyRef";
  }
  return "?";
}

PlanPtr MakeNode(PlanKind kind, std::vector<PlanPtr> children) {
  auto node = std::make_shared<PlanNode>(kind);
  for (const PlanPtr& c : children) MDJ_CHECK(c != nullptr);
  node->children_ = std::move(children);  // MakeNode is a friend
  return node;
}

namespace {

/// Mutable handle used by factories before the node is published as const.
PlanNode* Mutable(const PlanPtr& p) { return const_cast<PlanNode*>(p.get()); }

/// Appends "aggs | θ" of one MD-join component to a label, joined by `sep`.
void AppendComponent(const MdJoinComponent& c, const char* sep, std::string* out) {
  for (size_t i = 0; i < c.aggs.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += c.aggs[i].ToString();
  }
  *out += sep;
  *out += c.theta ? c.theta->ToString() : "?";
}

/// `masks` is every cuboid over `ndims` >= 1 dims in CubeMasks order: 2^d
/// masks, levels non-increasing and masks increasing within a level. One
/// pass, no lattice.
bool IsFullCube(const std::vector<CuboidMask>& masks, size_t ndims) {
  if (ndims == 0 || ndims >= kMaxCuboidDims || masks.size() != (size_t{1} << ndims)) {
    return false;
  }
  const CuboidMask full = PrefixMask(ndims);
  for (size_t i = 0; i < masks.size(); ++i) {
    if ((masks[i] & ~full) != 0) return false;
    if (i == 0) continue;
    const int level = std::popcount(masks[i]);
    const int prev = std::popcount(masks[i - 1]);
    if (level > prev || (level == prev && masks[i] <= masks[i - 1])) return false;
  }
  return true;
}

}  // namespace

PlanPtr TableRef(std::string name) {
  PlanPtr p = MakeNode(PlanKind::kTableRef, {});
  Mutable(p)->table_name = std::move(name);
  return p;
}

PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate) {
  PlanPtr p = MakeNode(PlanKind::kFilter, {std::move(child)});
  Mutable(p)->predicate = std::move(predicate);
  return p;
}

PlanPtr ProjectPlan(PlanPtr child, std::vector<ProjectItem> items) {
  PlanPtr p = MakeNode(PlanKind::kProject, {std::move(child)});
  Mutable(p)->projections = std::move(items);
  return p;
}

PlanPtr DistinctPlan(PlanPtr child) {
  return MakeNode(PlanKind::kDistinct, {std::move(child)});
}

PlanPtr UnionPlan(std::vector<PlanPtr> children) {
  return MakeNode(PlanKind::kUnion, std::move(children));
}

PlanPtr PartitionPlan(PlanPtr child, int index, int count) {
  MDJ_CHECK(count > 0 && index >= 0 && index < count);
  PlanPtr p = MakeNode(PlanKind::kPartition, {std::move(child)});
  Mutable(p)->partition_index = index;
  Mutable(p)->partition_count = count;
  return p;
}

PlanPtr HashJoinPlan(PlanPtr left, PlanPtr right, std::vector<std::string> left_keys,
                     std::vector<std::string> right_keys, JoinType type) {
  PlanPtr p = MakeNode(PlanKind::kHashJoin, {std::move(left), std::move(right)});
  Mutable(p)->left_keys = std::move(left_keys);
  Mutable(p)->right_keys = std::move(right_keys);
  Mutable(p)->join_type = type;
  return p;
}

PlanPtr MdJoinPlan(PlanPtr base, PlanPtr detail, std::vector<AggSpec> aggs,
                   ExprPtr theta) {
  return GeneralizedMdJoinPlan(std::move(base), std::move(detail),
                               {{std::move(aggs), std::move(theta)}});
}

PlanPtr GeneralizedMdJoinPlan(PlanPtr base, PlanPtr detail,
                              std::vector<MdJoinComponent> components) {
  PlanPtr p = MakeNode(PlanKind::kMdJoin, {std::move(base), std::move(detail)});
  Mutable(p)->components = std::move(components);
  return p;
}

bool IsPlainMdJoin(const PlanPtr& plan) {
  return plan->kind() == PlanKind::kMdJoin && plan->components.size() == 1;
}

PlanPtr CuboidBasePlan(PlanPtr child, std::vector<std::string> dims,
                       std::vector<CuboidMask> masks) {
  PlanPtr p = MakeNode(PlanKind::kCuboidBase, {std::move(child)});
  Mutable(p)->cube_dims = std::move(dims);
  Mutable(p)->cuboid_masks = std::move(masks);
  return p;
}

PlanPtr CuboidBasePlan(PlanPtr child, std::vector<std::string> dims, CuboidMask mask) {
  return CuboidBasePlan(std::move(child), std::move(dims), std::vector<CuboidMask>{mask});
}

PlanPtr CubeBasePlan(PlanPtr child, std::vector<std::string> dims) {
  Result<CubeLattice> lattice = CubeLattice::Make(dims);
  std::vector<CuboidMask> masks;
  if (lattice.ok()) masks = CubeMasks(*lattice);
  return CuboidBasePlan(std::move(child), std::move(dims), std::move(masks));
}

PlanPtr SortPlan(PlanPtr child, std::vector<std::string> columns,
                 std::vector<bool> ascending) {
  PlanPtr p = MakeNode(PlanKind::kSort, {std::move(child)});
  if (ascending.empty()) ascending.assign(columns.size(), true);
  MDJ_CHECK(ascending.size() == columns.size());
  Mutable(p)->sort_columns = std::move(columns);
  Mutable(p)->sort_ascending = std::move(ascending);
  return p;
}

PlanPtr EmptyRefPlan(Schema schema) {
  PlanPtr p = MakeNode(PlanKind::kEmptyRef, {});
  Mutable(p)->empty_schema = std::make_shared<const Schema>(std::move(schema));
  return p;
}

PlanPtr CloneWithChildren(const PlanPtr& node, std::vector<PlanPtr> children) {
  PlanPtr p = MakeNode(node->kind(), std::move(children));
  PlanNode* m = Mutable(p);
  m->table_name = node->table_name;
  m->predicate = node->predicate;
  m->projections = node->projections;
  m->partition_index = node->partition_index;
  m->partition_count = node->partition_count;
  m->left_keys = node->left_keys;
  m->right_keys = node->right_keys;
  m->join_type = node->join_type;
  m->components = node->components;
  m->cube_dims = node->cube_dims;
  m->cuboid_masks = node->cuboid_masks;
  m->sort_columns = node->sort_columns;
  m->sort_ascending = node->sort_ascending;
  m->empty_schema = node->empty_schema;
  return p;
}

DetailSelections PeelDetailSelections(const PlanPtr& plan,
                                      const std::function<bool(const PlanPtr&)>& stop) {
  std::vector<ExprPtr> predicates;
  PlanPtr node = plan;
  while (node->kind() == PlanKind::kFilter &&
         !node->predicate->ReferencesSide(Side::kBase) &&
         (stop == nullptr || !stop(node))) {
    predicates.push_back(node->predicate);
    node = node->child(0);
  }
  DetailSelections out{std::move(node), {}};
  for (auto it = predicates.rbegin(); it != predicates.rend(); ++it) {
    for (ExprPtr& c : SplitConjuncts(*it)) out.conjuncts.push_back(std::move(c));
  }
  return out;
}

std::string PlanNode::Label() const {
  std::string out = PlanKindToString(kind_);
  switch (kind_) {
    case PlanKind::kTableRef:
      out += "(" + table_name + ")";
      break;
    case PlanKind::kFilter:
      out += "(" + (predicate ? predicate->ToString() : "?") + ")";
      break;
    case PlanKind::kProject: {
      out += "(";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += projections[i].name;
      }
      out += ")";
      break;
    }
    case PlanKind::kPartition:
      out += "(" + std::to_string(partition_index) + "/" +
             std::to_string(partition_count) + ")";
      break;
    case PlanKind::kHashJoin: {
      out += "(";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += left_keys[i] + "=" + right_keys[i];
      }
      out += join_type == JoinType::kLeftOuter ? "; left outer)" : ")";
      break;
    }
    case PlanKind::kMdJoin: {
      // One component renders as Definition 3.1's MD-join, more as
      // Definition 4.1's generalized one.
      if (components.size() == 1) {
        out += "(aggs: ";
        AppendComponent(components[0], "; theta: ", &out);
        out += ")";
        break;
      }
      out = "GeneralizedMdJoin(" + std::to_string(components.size()) + " components";
      for (const MdJoinComponent& c : components) {
        out += "; [";
        AppendComponent(c, " | ", &out);
        out += "]";
      }
      out += ")";
      break;
    }
    case PlanKind::kCuboidBase: {
      // The full cube in CubeMasks order renders as its dimension list; any
      // other list as its cuboids, ALL in each rolled-up position.
      if (IsFullCube(cuboid_masks, cube_dims.size())) {
        out = "CubeBase(";
        for (size_t i = 0; i < cube_dims.size(); ++i) {
          out += (i > 0 ? ", " : "") + cube_dims[i];
        }
        out += ")";
        break;
      }
      out += "(";
      for (size_t m = 0; m < cuboid_masks.size(); ++m) {
        if (m > 0) out += "; ";
        for (size_t i = 0; i < cube_dims.size(); ++i) {
          if (i > 0) out += ", ";
          const bool grouped =
              i < kMaxCuboidDims && (cuboid_masks[m] & (CuboidMask{1} << i)) != 0;
          out += grouped ? cube_dims[i] : "ALL";
        }
      }
      out += ")";
      break;
    }
    case PlanKind::kSort: {
      out += "(";
      for (size_t i = 0; i < sort_columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_columns[i];
        if (!sort_ascending[i]) out += " desc";
      }
      out += ")";
      break;
    }
    case PlanKind::kEmptyRef:
      out += "(" + (empty_schema ? empty_schema->ToString() : std::string("?")) + ")";
      break;
    default:
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

Status Catalog::Register(std::string name, const Table* table) {
  MDJ_CHECK(table != nullptr);
  if (paged_.count(name) != 0) {
    return Status::AlreadyExists("table '", name, "' already registered (paged)");
  }
  auto [it, inserted] = tables_.try_emplace(std::move(name), table);
  if (!inserted) return Status::AlreadyExists("table '", it->first, "' already registered");
  return Status::OK();
}

Status Catalog::RegisterPaged(std::string name, const PagedTable* table,
                              Schema schema, int64_t num_rows) {
  MDJ_CHECK(table != nullptr);
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '", name, "' already registered");
  }
  auto [it, inserted] = paged_.try_emplace(
      std::move(name), PagedEntry{table, std::move(schema), num_rows});
  if (!inserted) {
    return Status::AlreadyExists("table '", it->first, "' already registered (paged)");
  }
  return Status::OK();
}

Result<const Table*> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named '", name, "'");
  return it->second;
}

const PagedTable* Catalog::FindPaged(const std::string& name) const {
  auto it = paged_.find(name);
  return it == paged_.end() ? nullptr : it->second.table;
}

Result<const Schema*> Catalog::LookupSchema(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return &it->second->schema();
  auto pit = paged_.find(name);
  if (pit != paged_.end()) return &pit->second.schema;
  return Status::NotFound("no table named '", name, "'");
}

Result<int64_t> Catalog::LookupNumRows(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second->num_rows();
  auto pit = paged_.find(name);
  if (pit != paged_.end()) return pit->second.num_rows;
  return Status::NotFound("no table named '", name, "'");
}

Status Catalog::RegisterStats(const std::string& name, const TableStats* stats) {
  MDJ_CHECK(stats != nullptr);
  if (tables_.count(name) == 0 && paged_.count(name) == 0) {
    return Status::NotFound("RegisterStats: no table named '", name, "'");
  }
  stats_[name] = stats;
  return Status::OK();
}

const TableStats* Catalog::FindStats(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size() + paged_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  for (const auto& [name, entry] : paged_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// Schema inference
// ---------------------------------------------------------------------------

namespace {

Result<Schema> InferAggOutputs(const Schema& base, const Schema& detail,
                               const std::vector<AggSpec>& aggs, Schema out) {
  MDJ_ASSIGN_OR_RETURN(std::vector<BoundAgg> bound, BindAggs(aggs, &base, &detail));
  for (const BoundAgg& b : bound) {
    MDJ_RETURN_NOT_OK(out.AddField(b.output_field));
  }
  return out;
}

}  // namespace

Result<Schema> InferSchema(const PlanPtr& plan, const Catalog& catalog) {
  if (plan == nullptr) return Status::InvalidArgument("InferSchema: null plan");
  switch (plan->kind()) {
    case PlanKind::kTableRef: {
      MDJ_ASSIGN_OR_RETURN(const Schema* s, catalog.LookupSchema(plan->table_name));
      return *s;
    }
    case PlanKind::kFilter: {
      MDJ_ASSIGN_OR_RETURN(Schema child, InferSchema(plan->child(0), catalog));
      // Type-check the predicate against the child schema.
      MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(plan->predicate, child));
      (void)c;
      return child;
    }
    case PlanKind::kProject: {
      MDJ_ASSIGN_OR_RETURN(Schema child, InferSchema(plan->child(0), catalog));
      std::vector<Field> fields;
      for (const ProjectItem& item : plan->projections) {
        MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(item.expr, child));
        fields.push_back(Field{item.name, c.result_type()});
      }
      return Schema(std::move(fields));
    }
    case PlanKind::kDistinct:
    case PlanKind::kPartition:
      return InferSchema(plan->child(0), catalog);
    case PlanKind::kSort: {
      MDJ_ASSIGN_OR_RETURN(Schema child, InferSchema(plan->child(0), catalog));
      for (const std::string& c : plan->sort_columns) {
        MDJ_ASSIGN_OR_RETURN(int idx, child.GetFieldIndex(c));
        (void)idx;
      }
      return child;
    }
    case PlanKind::kUnion: {
      if (plan->children().empty()) {
        return Status::InvalidArgument("Union with no children");
      }
      MDJ_ASSIGN_OR_RETURN(Schema first, InferSchema(plan->child(0), catalog));
      for (size_t i = 1; i < plan->children().size(); ++i) {
        MDJ_ASSIGN_OR_RETURN(Schema other,
                             InferSchema(plan->children()[i], catalog));
        if (!other.Equals(first)) {
          return Status::TypeError("Union children have mismatched schemas: [",
                                   first.ToString(), "] vs [", other.ToString(), "]");
        }
      }
      return first;
    }
    case PlanKind::kHashJoin: {
      MDJ_ASSIGN_OR_RETURN(Schema left, InferSchema(plan->child(0), catalog));
      MDJ_ASSIGN_OR_RETURN(Schema right, InferSchema(plan->child(1), catalog));
      // Mirror ra::HashJoin's schema: left columns, then right non-key
      // columns with "_r" suffixing on clashes.
      std::vector<Field> fields = left.fields();
      auto taken = [&fields](const std::string& name) {
        for (const Field& f : fields) {
          if (f.name == name) return true;
        }
        return false;
      };
      for (const Field& f : right.fields()) {
        bool is_key = false;
        for (const std::string& k : plan->right_keys) is_key = is_key || k == f.name;
        if (is_key) continue;
        Field out = f;
        while (taken(out.name)) out.name += "_r";
        fields.push_back(std::move(out));
      }
      return Schema(std::move(fields));
    }
    case PlanKind::kMdJoin: {
      if (plan->components.empty()) {
        return Status::InvalidArgument("MD-join has no components");
      }
      MDJ_ASSIGN_OR_RETURN(Schema base, InferSchema(plan->child(0), catalog));
      MDJ_ASSIGN_OR_RETURN(Schema detail, InferSchema(plan->child(1), catalog));
      Schema out = base;
      for (const MdJoinComponent& comp : plan->components) {
        // Type-check θ while we are here.
        MDJ_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(comp.theta, &base, &detail));
        (void)c;
        MDJ_ASSIGN_OR_RETURN(out, InferAggOutputs(base, detail, comp.aggs, out));
      }
      return out;
    }
    case PlanKind::kCuboidBase: {
      if (plan->cuboid_masks.empty()) {
        return Status::InvalidArgument("CuboidBase lists no cuboids");
      }
      MDJ_ASSIGN_OR_RETURN(Schema child, InferSchema(plan->child(0), catalog));
      std::vector<Field> fields;
      for (const std::string& d : plan->cube_dims) {
        MDJ_ASSIGN_OR_RETURN(int idx, child.GetFieldIndex(d));
        fields.push_back(child.field(idx));
      }
      return Schema(std::move(fields));
    }
    case PlanKind::kEmptyRef: {
      if (plan->empty_schema == nullptr) {
        return Status::InvalidArgument("EmptyRef carries no schema");
      }
      return *plan->empty_schema;
    }
  }
  return Status::Internal("unreachable plan kind");
}

namespace {

void ExplainRec(const PlanPtr& plan, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += plan->Label();
  *out += "\n";
  for (const PlanPtr& c : plan->children()) ExplainRec(c, depth + 1, out);
}

}  // namespace

std::string ExplainPlan(const PlanPtr& plan) {
  std::string out;
  if (plan != nullptr) ExplainRec(plan, 0, &out);
  return out;
}

}  // namespace mdjoin
