#include "analyze/plan_analyzer.h"

#include <algorithm>

#include "agg/agg_spec.h"
#include "expr/compile.h"

namespace mdjoin {

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

const char* DiagSeverityToString(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
  }
  return "?";
}

std::string AnalyzerDiagnostic::ToString() const {
  return std::string("[") + DiagSeverityToString(severity) + "] " + rule + " at " +
         path + ": " + message;
}

Status AnalyzerDiagnostic::ToStatus() const {
  return Status::InvalidArgument(ToString());
}

// ---------------------------------------------------------------------------
// θ-conjunct classification
// ---------------------------------------------------------------------------

const char* ConjunctClassToString(ConjunctClass cls) {
  switch (cls) {
    case ConjunctClass::kEquiBound:
      return "equi-bound";
    case ConjunctClass::kDetailOnly:
      return "R-only";
    case ConjunctClass::kBaseOnly:
      return "B-only";
    case ConjunctClass::kConstant:
      return "constant";
    case ConjunctClass::kResidual:
      return "mixed";
  }
  return "?";
}

namespace {

ConjunctClass ClassifyOne(const ExprPtr& c) {
  const bool uses_base = c->ReferencesSide(Side::kBase);
  const bool uses_detail = c->ReferencesSide(Side::kDetail);
  if (!uses_base && !uses_detail) return ConjunctClass::kConstant;
  if (!uses_base) return ConjunctClass::kDetailOnly;
  if (!uses_detail) return ConjunctClass::kBaseOnly;
  if (c->kind() == ExprKind::kBinary && c->binary_op() == BinaryOp::kEq) {
    const ExprPtr& l = c->left();
    const ExprPtr& r = c->right();
    const bool l_base = l->ReferencesSide(Side::kBase);
    const bool l_detail = l->ReferencesSide(Side::kDetail);
    const bool r_base = r->ReferencesSide(Side::kBase);
    const bool r_detail = r->ReferencesSide(Side::kDetail);
    if ((l_base && !l_detail && r_detail && !r_base) ||
        (r_base && !r_detail && l_detail && !l_base)) {
      return ConjunctClass::kEquiBound;
    }
  }
  return ConjunctClass::kResidual;
}

}  // namespace

bool ThetaClassification::HasEquiBinding(const std::string& base_column) const {
  for (const auto& [name, expr] : equi_bound) {
    if (name == base_column) return true;
  }
  return false;
}

ThetaClassification ClassifyTheta(const ExprPtr& theta) {
  ThetaClassification out;
  ExprPtr folded = FoldConstants(theta);
  out.parts = AnalyzeTheta(folded);
  for (const ExprPtr& c : SplitConjuncts(folded)) {
    out.conjuncts.push_back({c, ClassifyOne(c)});
  }
  if (theta != nullptr) {
    out.base_columns = theta->ReferencedColumns(Side::kBase);
    out.detail_columns = theta->ReferencedColumns(Side::kDetail);
  }
  for (const EquiPair& p : out.parts.equi) {
    if (p.base_expr->kind() == ExprKind::kColumnRef) {
      out.equi_bound.emplace_back(p.base_expr->column_name(), p.detail_expr);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

const char* AttrOriginToString(AttrOrigin origin) {
  switch (origin) {
    case AttrOrigin::kBaseColumn:
      return "base column";
    case AttrOrigin::kAggregate:
      return "aggregate output";
    case AttrOrigin::kComputed:
      return "computed";
    case AttrOrigin::kRenamed:
      return "renamed";
  }
  return "?";
}

const AttrProvenance* NodeAnalysis::FindProvenance(const std::string& name) const {
  for (const AttrProvenance& p : provenance) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// PlanAnalysis
// ---------------------------------------------------------------------------

const NodeAnalysis* PlanAnalysis::Find(const PlanNode* node) const {
  for (const NodeAnalysis& n : nodes) {
    if (n.node == node) return &n;
  }
  return nullptr;
}

bool PlanAnalysis::ok() const {
  for (const AnalyzerDiagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) return false;
  }
  return true;
}

Status PlanAnalysis::ToStatus(const char* context) const {
  int errors = 0;
  const AnalyzerDiagnostic* first = nullptr;
  for (const AnalyzerDiagnostic& d : diagnostics) {
    if (d.severity != DiagSeverity::kError) continue;
    if (first == nullptr) first = &d;
    ++errors;
  }
  if (first == nullptr) return Status::OK();
  return Status::InvalidArgument(context, ": ", first->ToString(), " (", errors,
                                 " error diagnostic", errors == 1 ? "" : "s", ")");
}

std::string PlanAnalysis::DiagnosticsToString() const {
  std::string out;
  for (const AnalyzerDiagnostic& d : diagnostics) {
    out += d.ToString();
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// The whole-tree pass
// ---------------------------------------------------------------------------

namespace {

/// Each cuboid emits one row per value combination, so a generator's rows
/// are distinct unless it lists a cuboid twice: a grouping-sets list may
/// repeat a set, and the generator emits each copy.
bool ListsACuboidTwice(std::vector<CuboidMask> masks) {
  std::sort(masks.begin(), masks.end());
  return std::adjacent_find(masks.begin(), masks.end()) != masks.end();
}

/// Recursive analyzer. Children are analyzed before their parent; a node
/// whose child failed to resolve a schema records no schema itself and emits
/// no secondary diagnostics (one root cause, no cascade).
class Analyzer {
 public:
  explicit Analyzer(const Catalog& catalog) : catalog_(catalog) {}

  PlanAnalysis Take() && { return std::move(analysis_); }

  /// Returns the index of the node's NodeAnalysis in analysis_.nodes.
  size_t Visit(const PlanPtr& plan, const std::string& path) {
    std::vector<size_t> child_idx;
    child_idx.reserve(plan->children().size());
    for (size_t i = 0; i < plan->children().size(); ++i) {
      child_idx.push_back(Visit(plan->children()[i], path + "/" + std::to_string(i)));
    }
    NodeAnalysis n;
    n.node = plan.get();
    n.path = path;
    AnalyzeNode(plan, child_idx, &n);
    analysis_.nodes.push_back(std::move(n));
    return analysis_.nodes.size() - 1;
  }

 private:
  const NodeAnalysis& Child(const std::vector<size_t>& idx, size_t i) const {
    return analysis_.nodes[idx[i]];
  }

  void Diag(const NodeAnalysis& n, const char* rule, std::string message,
            DiagSeverity severity = DiagSeverity::kError) {
    analysis_.diagnostics.push_back({severity, n.path, rule, std::move(message)});
  }

  /// True when every child resolved a schema; otherwise the parent stays
  /// schema-less without further noise.
  bool ChildrenResolved(const std::vector<size_t>& idx) const {
    for (size_t i : idx) {
      if (!analysis_.nodes[i].schema.has_value()) return false;
    }
    return true;
  }

  void InheritChild(const NodeAnalysis& child, NodeAnalysis* n) {
    n->schema = child.schema;
    n->provenance = child.provenance;
    n->rows_distinct = child.rows_distinct;
    n->distinct_evidence = child.distinct_evidence;
  }

  void AnalyzeNode(const PlanPtr& plan, const std::vector<size_t>& child_idx,
                   NodeAnalysis* n) {
    // Child-count sanity first: the factories enforce these, but the analyzer
    // must not crash on a hand-built tree.
    const size_t kids = plan->children().size();
    const auto expect = [&](size_t want) {
      if (kids == want) return true;
      Diag(*n, "invariant", std::string(PlanKindToString(plan->kind())) +
                                " has " + std::to_string(kids) + " children, expected " +
                                std::to_string(want));
      return false;
    };
    switch (plan->kind()) {
      case PlanKind::kTableRef: {
        if (!expect(0)) return;
        Result<const Schema*> s = catalog_.LookupSchema(plan->table_name);
        if (!s.ok()) {
          Diag(*n, "invariant", "unbound table: " + s.status().message());
          return;
        }
        n->schema = **s;
        for (const Field& f : n->schema->fields()) {
          n->provenance.push_back({f.name, AttrOrigin::kBaseColumn, plan.get(),
                                   plan->table_name + "." + f.name});
        }
        return;
      }
      case PlanKind::kFilter: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& child = Child(child_idx, 0);
        if (plan->predicate == nullptr) {
          Diag(*n, "invariant", "Filter has no predicate");
          return;
        }
        Result<CompiledExpr> c = CompileExpr(plan->predicate, *child.schema);
        if (!c.ok()) {
          Diag(*n, "type check", "predicate does not compile: " + c.status().message());
          return;
        }
        InheritChild(child, n);
        return;
      }
      case PlanKind::kProject: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& child = Child(child_idx, 0);
        Schema out;
        for (const ProjectItem& item : plan->projections) {
          Result<CompiledExpr> c = CompileExpr(item.expr, *child.schema);
          if (!c.ok()) {
            Diag(*n, "type check", "projection '" + item.name +
                                       "' does not compile: " + c.status().message());
            return;
          }
          Status added = out.AddField({item.name, c->result_type()});
          if (!added.ok()) {
            Diag(*n, "invariant", "duplicate projection name: " + added.message());
            return;
          }
          // Plain column passthroughs keep their provenance; everything else
          // is a computed attribute introduced here.
          const AttrProvenance* src =
              item.expr->kind() == ExprKind::kColumnRef
                  ? child.FindProvenance(item.expr->column_name())
                  : nullptr;
          if (src != nullptr) {
            AttrProvenance p = *src;
            p.name = item.name;
            n->provenance.push_back(std::move(p));
          } else {
            n->provenance.push_back(
                {item.name, AttrOrigin::kComputed, plan.get(), item.expr->ToString()});
          }
        }
        n->schema = std::move(out);
        return;
      }
      case PlanKind::kDistinct: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        InheritChild(Child(child_idx, 0), n);
        n->rows_distinct = true;
        n->distinct_evidence = "Distinct at " + n->path;
        return;
      }
      case PlanKind::kUnion: {
        if (kids == 0) {
          Diag(*n, "invariant", "Union has no children");
          return;
        }
        if (!ChildrenResolved(child_idx)) return;
        const NodeAnalysis& first = Child(child_idx, 0);
        for (size_t i = 1; i < kids; ++i) {
          const NodeAnalysis& other = Child(child_idx, i);
          if (!other.schema->Equals(*first.schema)) {
            Diag(*n, "type check",
                 "Union children have mismatched schemas: [" +
                     first.schema->ToString() + "] vs [" + other.schema->ToString() +
                     "] at " + other.path);
            return;
          }
        }
        n->schema = first.schema;
        n->provenance = first.provenance;
        return;
      }
      case PlanKind::kPartition: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        if (plan->partition_count < 1 || plan->partition_index < 0 ||
            plan->partition_index >= plan->partition_count) {
          Diag(*n, "invariant",
               "partition slice " + std::to_string(plan->partition_index) + "/" +
                   std::to_string(plan->partition_count) + " out of range");
          return;
        }
        InheritChild(Child(child_idx, 0), n);
        return;
      }
      case PlanKind::kSort: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& child = Child(child_idx, 0);
        if (plan->sort_ascending.size() != plan->sort_columns.size()) {
          Diag(*n, "invariant", "sort direction list is not parallel to columns");
          return;
        }
        for (const std::string& c : plan->sort_columns) {
          if (!child.schema->FindField(c)) {
            Diag(*n, "type check", "sort column '" + c + "' is not in the input");
            return;
          }
        }
        InheritChild(child, n);
        return;
      }
      case PlanKind::kHashJoin: {
        if (!expect(2) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& left = Child(child_idx, 0);
        const NodeAnalysis& right = Child(child_idx, 1);
        if (plan->left_keys.size() != plan->right_keys.size() ||
            plan->left_keys.empty()) {
          Diag(*n, "invariant", "join key lists are empty or not parallel");
          return;
        }
        for (size_t i = 0; i < plan->left_keys.size(); ++i) {
          Result<int> li = left.schema->GetFieldIndex(plan->left_keys[i]);
          Result<int> ri = right.schema->GetFieldIndex(plan->right_keys[i]);
          if (!li.ok() || !ri.ok()) {
            Diag(*n, "type check",
                 "join key '" + plan->left_keys[i] + "'='" + plan->right_keys[i] +
                     "' does not resolve on both sides");
            return;
          }
          if (left.schema->field(*li).type != right.schema->field(*ri).type) {
            Diag(*n, "type check",
                 "join key type mismatch on '" + plan->left_keys[i] + "'");
            return;
          }
        }
        // Mirror ra::HashJoin's output: left columns, then right non-key
        // columns with "_r" suffixing on clashes.
        Schema out = *left.schema;
        n->provenance = left.provenance;
        for (int i = 0; i < right.schema->num_fields(); ++i) {
          const Field& f = right.schema->field(i);
          bool is_key = false;
          for (const std::string& k : plan->right_keys) is_key = is_key || k == f.name;
          if (is_key) continue;
          Field renamed = f;
          while (out.FindField(renamed.name)) renamed.name += "_r";
          AttrProvenance p = right.provenance[static_cast<size_t>(i)];
          if (renamed.name != f.name) {
            p = {renamed.name, AttrOrigin::kRenamed, plan.get(),
                 "join rename of " + f.name};
          }
          n->provenance.push_back(std::move(p));
          (void)out.AddField(std::move(renamed));
        }
        n->schema = std::move(out);
        return;
      }
      case PlanKind::kMdJoin: {
        if (!expect(2) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& base = Child(child_idx, 0);
        const NodeAnalysis& detail = Child(child_idx, 1);
        if (plan->components.empty()) {
          Diag(*n, "invariant", "MD-join has no components");
          return;
        }
        for (const MdJoinComponent& comp : plan->components) {
          if (comp.theta == nullptr) {
            Diag(*n, "invariant", "MD-join component has no θ-condition");
            return;
          }
          if (!AnalyzeComponent(plan, comp.aggs, comp.theta, base, detail, n)) return;
        }
        n->rows_distinct = base.rows_distinct;
        if (base.rows_distinct) {
          n->distinct_evidence =
              "MD-join extends distinct base rows (" + base.distinct_evidence + ")";
        }
        return;
      }
      case PlanKind::kCuboidBase: {
        if (!expect(1) || !ChildrenResolved(child_idx)) return;
        const NodeAnalysis& child = Child(child_idx, 0);
        if (plan->cube_dims.empty()) {
          Diag(*n, "invariant", "cuboid generator has no dimensions");
          return;
        }
        if (plan->cube_dims.size() > kMaxCuboidDims) {
          Diag(*n, "invariant", "cuboid generator has more dimensions than a mask has bits");
          return;
        }
        if (plan->cuboid_masks.empty()) {
          Diag(*n, "invariant", "cuboid generator lists no cuboids");
          return;
        }
        for (CuboidMask mask : plan->cuboid_masks) {
          if ((mask & ~PrefixMask(plan->cube_dims.size())) != 0) {
            Diag(*n, "invariant", "cuboid mask has bits beyond the dimension list");
            return;
          }
        }
        Schema out;
        for (const std::string& d : plan->cube_dims) {
          Result<int> idx = child.schema->GetFieldIndex(d);
          if (!idx.ok()) {
            Diag(*n, "type check", "cube dimension '" + d + "' is not in the input");
            return;
          }
          Status added = out.AddField(child.schema->field(*idx));
          if (!added.ok()) {
            Diag(*n, "invariant", "duplicate cube dimension: " + added.message());
            return;
          }
          const AttrProvenance* src = child.FindProvenance(d);
          n->provenance.push_back(src != nullptr
                                      ? *src
                                      : AttrProvenance{d, AttrOrigin::kBaseColumn,
                                                       plan.get(), d});
        }
        n->schema = std::move(out);
        if (!ListsACuboidTwice(plan->cuboid_masks)) {
          n->rows_distinct = true;
          n->distinct_evidence =
              "CuboidBase generator emits distinct value combinations at " + n->path;
        }
        return;
      }
      case PlanKind::kEmptyRef: {
        if (!expect(0)) return;
        if (plan->empty_schema == nullptr) {
          Diag(*n, "invariant", "EmptyRef carries no schema");
          return;
        }
        n->schema = *plan->empty_schema;
        for (const Field& f : n->schema->fields()) {
          n->provenance.push_back(
              {f.name, AttrOrigin::kBaseColumn, plan.get(), "(empty)." + f.name});
        }
        n->rows_distinct = true;  // zero rows are trivially duplicate-free
        n->distinct_evidence = "empty relation at " + n->path;
        return;
      }
    }
    Diag(*n, "invariant", "unknown plan kind");
  }

  /// Type-checks one (aggs, θ) component against (base, detail) and extends
  /// the node's schema/provenance/θ-classifications; called once per
  /// component, accumulating.
  bool AnalyzeComponent(const PlanPtr& plan, const std::vector<AggSpec>& aggs,
                        const ExprPtr& theta, const NodeAnalysis& base,
                        const NodeAnalysis& detail, NodeAnalysis* n) {
    if (!n->schema.has_value()) {
      n->schema = base.schema;
      n->provenance = base.provenance;
    }
    Result<CompiledExpr> c = CompileExpr(theta, &*base.schema, &*detail.schema);
    if (!c.ok()) {
      Diag(*n, "type check", "θ does not compile: " + c.status().message());
      n->schema.reset();
      return false;
    }
    Result<std::vector<BoundAgg>> bound =
        BindAggs(aggs, &*base.schema, &*detail.schema);
    if (!bound.ok()) {
      Diag(*n, "type check",
           "aggregate list does not bind: " + bound.status().message());
      n->schema.reset();
      return false;
    }
    for (size_t i = 0; i < bound->size(); ++i) {
      Status added = n->schema->AddField((*bound)[i].output_field);
      if (!added.ok()) {
        Diag(*n, "invariant", "duplicate aggregate output: " + added.message());
        n->schema.reset();
        return false;
      }
      n->provenance.push_back({(*bound)[i].output_field.name, AttrOrigin::kAggregate,
                               plan.get(), aggs[i].ToString()});
    }
    n->thetas.push_back(ClassifyTheta(theta));
    return true;
  }

  const Catalog& catalog_;
  PlanAnalysis analysis_;
};

}  // namespace

Result<PlanAnalysis> AnalyzePlan(const PlanPtr& plan, const Catalog& catalog) {
  if (plan == nullptr) return Status::InvalidArgument("AnalyzePlan: null plan");
  Analyzer analyzer(catalog);
  analyzer.Visit(plan, "root");
  return std::move(analyzer).Take();
}

// ---------------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------------

namespace {

Status NotCertified(const char* rule, const std::string& path, std::string why) {
  return AnalyzerDiagnostic{DiagSeverity::kError, path, rule, std::move(why)}
      .ToStatus();
}

/// The base-side attributes one component's θ and aggregate arguments read.
std::set<std::string> BaseRefs(const MdJoinComponent& comp) {
  std::set<std::string> refs = comp.theta->ReferencedColumns(Side::kBase);
  for (const AggSpec& a : comp.aggs) {
    if (a.argument != nullptr) {
      std::set<std::string> arg_refs = a.argument->ReferencedColumns(Side::kBase);
      refs.insert(arg_refs.begin(), arg_refs.end());
    }
  }
  return refs;
}

/// θ's equi part is exactly the dimension-equality condition over `dims`:
/// the condition under which a cuboid row matches a detail tuple iff they
/// agree on the cuboid's grouped dims (CertifyRollup, CertifyGroupIds).
Status CheckDimensionEquality(const ThetaParts& parts, const std::vector<std::string>& dims,
                              const char* rule) {
  if (const char* why = DimensionEqualityFailure(parts.equi, dims)) {
    return NotCertified(rule, "root", why);
  }
  return Status::OK();
}

}  // namespace

Result<TransferCertificate> CertifyEquiTransfer(const PlanPtr& plan) {
  if (!IsPlainMdJoin(plan)) {
    return NotCertified("Observation 4.1", "root", "root is not a one-component MD-join");
  }
  const PlanPtr& base = plan->child(0);
  if (base->kind() != PlanKind::kFilter) {
    return NotCertified("Observation 4.1", "root/0", "base child is not a selection");
  }
  const ExprPtr& theta = plan->components[0].theta;
  ThetaClassification cls = ClassifyTheta(theta);
  // The base selection predicate is a single-table expression over B (kDetail
  // frame); every attribute it touches must be in the equi-transfer closure.
  TransferCertificate cert;
  for (const std::string& col : base->predicate->ReferencedColumns(Side::kDetail)) {
    if (!cls.HasEquiBinding(col)) {
      return NotCertified("Observation 4.1", "root/0",
                          "selection attribute '" + col +
                              "' is not bound by a plain-column equi conjunct of θ");
    }
  }
  cert.substitution = cls.equi_bound;
  // Ranges Observation 4.1 carries across the equi conjuncts: the base
  // selection's constraints (a single-table predicate in the kDetail frame,
  // remapped to B here) conjoined with θ, then read off the detail side as
  // transfer facts — the range predicates the transferred σ implies on R.
  ExprPtr base_sel = Expr::RemapSide(base->predicate, Side::kDetail, Side::kBase);
  RangeAnalysis ranges =
      AnalyzeRanges(Expr::Binary(BinaryOp::kAnd, theta, std::move(base_sel)));
  for (const RangeFact& f : ranges.facts) {
    if (f.from_transfer) cert.transferred_ranges.push_back(f);
  }
  return cert;
}

Result<UnsatThetaCertificate> CertifyUnsatTheta(const PlanPtr& plan) {
  if (plan == nullptr || !IsPlainMdJoin(plan)) {
    return NotCertified("unsat-θ", "root", "root is not a one-component MD-join");
  }
  RangeAnalysis analysis = AnalyzeRanges(plan->components[0].theta);
  if (analysis.satisfiable) {
    return NotCertified("unsat-θ", "root",
                        "interval analysis cannot refute θ: " +
                            (analysis.facts.empty()
                                 ? std::string("no range facts derived")
                                 : analysis.ToString()));
  }
  UnsatThetaCertificate cert;
  cert.reason = analysis.unsat_reason;
  cert.analysis = std::move(analysis);
  return cert;
}

ChainDependencyCertificate CertifyChainDependencies(
    const std::vector<PlanPtr>& chain_innermost_first) {
  ChainDependencyCertificate cert;
  const size_t k = chain_innermost_first.size();
  cert.generation.assign(k, 0);
  cert.outputs.resize(k);
  cert.base_refs.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const MdJoinComponent& comp = chain_innermost_first[i]->components[0];
    for (const AggSpec& a : comp.aggs) cert.outputs[i].insert(a.output_name);
    // A component depends on everything its θ or aggregate arguments read
    // from the base side: those names resolve against the stack below it.
    cert.base_refs[i] = BaseRefs(comp);
    int gen = 0;
    for (size_t j = 0; j < i; ++j) {
      bool depends = false;
      for (const std::string& r : cert.base_refs[i]) {
        if (cert.outputs[j].count(r)) {
          depends = true;
          break;
        }
      }
      if (depends) gen = std::max(gen, cert.generation[j] + 1);
    }
    cert.generation[i] = gen;
  }
  return cert;
}

Status CertifyOuterIndependence(const PlanPtr& plan, const Catalog& catalog,
                                const char* rule) {
  if (plan->kind() != PlanKind::kMdJoin ||
      plan->child(0)->kind() != PlanKind::kMdJoin) {
    return NotCertified(rule, "root", "root is not two nested MD-joins");
  }
  const PlanPtr& inner = plan->child(0);
  MDJ_ASSIGN_OR_RETURN(PlanAnalysis analysis, AnalyzePlan(inner, catalog));
  MDJ_RETURN_NOT_OK(analysis.ToStatus(rule));
  // Every base-side attribute the outer θ / aggregate arguments reference
  // must trace to an attribute of the inner *base*, not to an aggregate the
  // inner MD-join generates — provenance decides, not name guessing.
  const NodeAnalysis* base_info = analysis.Find(inner->child(0).get());
  std::set<std::string> outer_refs;
  for (const MdJoinComponent& comp : plan->components) {
    std::set<std::string> refs = BaseRefs(comp);
    outer_refs.insert(refs.begin(), refs.end());
  }
  for (const std::string& col : outer_refs) {
    const AttrProvenance* p = analysis.root().FindProvenance(col);
    if (p == nullptr || base_info == nullptr ||
        base_info->FindProvenance(col) == nullptr) {
      std::string origin =
          p == nullptr ? "unbound" : AttrOriginToString(p->origin);
      return NotCertified(rule, "root",
                          "outer θ references '" + col +
                              "', which is not an attribute of the inner base (" +
                              origin + (p != nullptr ? ": " + p->detail : "") + ")");
    }
  }
  return Status::OK();
}

Result<DistinctnessCertificate> CertifyBaseDistinct(const PlanPtr& base_plan) {
  // Bottom-up evidence, mirroring the rows_distinct propagation of the full
  // pass but runnable without a catalog: walk down through
  // distinctness-preserving operators to a node that *establishes*
  // distinctness.
  PlanPtr cursor = base_plan;
  std::string path = "root";
  std::vector<std::string> via;
  while (true) {
    switch (cursor->kind()) {
      case PlanKind::kDistinct:
        return DistinctnessCertificate{"Distinct at " + path +
                                       (via.empty() ? "" : " (preserved through " +
                                                              via.back() + ")")};
      case PlanKind::kCuboidBase:
        if (ListsACuboidTwice(cursor->cuboid_masks)) {
          return NotCertified("Theorem 4.4", path,
                              "no distinctness evidence: the CuboidBase lists a cuboid "
                              "twice and emits each copy");
        }
        return DistinctnessCertificate{
            "CuboidBase generator emits distinct value combinations at " + path};
      case PlanKind::kEmptyRef:
        return DistinctnessCertificate{"empty relation at " + path};
      // Distinctness-preserving: these never introduce duplicate rows when
      // their (relevant) child is duplicate-free.
      case PlanKind::kFilter:
      case PlanKind::kSort:
      case PlanKind::kPartition:
      case PlanKind::kMdJoin:
        // MD-joins output exactly their base's rows, extended with new
        // columns — extension cannot merge distinct rows.
        via.push_back(PlanKindToString(cursor->kind()));
        cursor = cursor->child(0);
        path += "/0";
        continue;
      default:
        return NotCertified(
            "Theorem 4.4", path,
            std::string("no distinctness evidence: ") + PlanKindToString(cursor->kind()) +
                " does not establish or preserve duplicate-freedom (wrap the base in "
                "Distinct, or derive it from a cuboid generator)");
    }
  }
}

Result<RollupCertificate> CertifyRollup(const PlanPtr& plan) {
  if (!IsPlainMdJoin(plan)) {
    return NotCertified("Theorem 4.5", "root", "root is not a one-component MD-join");
  }
  const PlanPtr& base = plan->child(0);
  if (base->kind() != PlanKind::kCuboidBase || base->cuboid_masks.size() != 1) {
    return NotCertified("Theorem 4.5", "root/0",
                        "base child is not a cuboid base-values table");
  }
  const MdJoinComponent& comp = plan->components[0];
  MDJ_ASSIGN_OR_RETURN(bool distributive, AllDistributive(comp.aggs));
  if (!distributive) {
    return NotCertified("Theorem 4.5", "root",
                        "aggregate list is not distributive; re-aggregating "
                        "finalized outputs would be wrong");
  }
  // θ must be exactly the dimension-equality condition over the cuboid's
  // dimension list: only equi conjuncts, each a plain B.d = R.d pair, and the
  // set of paired dimensions equal to the cuboid's.
  ThetaClassification cls = ClassifyTheta(comp.theta);
  if (!cls.parts.detail_only.empty() || !cls.parts.base_only.empty() ||
      !cls.parts.residual.empty()) {
    return NotCertified("Theorem 4.5", "root",
                        "θ has non-equi conjuncts; roll-up requires the pure "
                        "dimension-equality condition");
  }
  MDJ_RETURN_NOT_OK(CheckDimensionEquality(cls.parts, base->cube_dims, "Theorem 4.5"));
  return RollupCertificate{base->cube_dims};
}

Result<GroupIdsCertificate> CertifyGroupIds(const PlanPtr& plan) {
  constexpr const char* kRule = "group-id relative sets";
  if (plan->kind() != PlanKind::kMdJoin) {
    return NotCertified(kRule, "root", "root is not an MD-join");
  }
  const PlanPtr& base = plan->child(0);
  if (base->kind() != PlanKind::kCuboidBase) {
    return NotCertified(kRule, "root/0",
                        "base child is not a cube, rollup, grouping-sets or unpivot "
                        "generator");
  }
  GroupIdsCertificate cert{base->child(0), {}, base->cube_dims, base->cuboid_masks};
  // The detail child is R′, or R′ under selections.
  auto same = [](const PlanPtr& a, const PlanPtr& b) {
    return a == b || ExplainPlan(a) == ExplainPlan(b);
  };
  DetailSelections peeled = PeelDetailSelections(
      plan->child(1), [&](const PlanPtr& p) { return same(p, cert.detail); });
  if (!same(peeled.inner, cert.detail)) {
    return NotCertified(kRule, "root/1",
                        "the detail child is not the plan the base is generated from");
  }
  cert.extra = std::move(peeled.conjuncts);
  // Every θ: the dimension equality over dims, and no B-only conjunct (it
  // would drop base rows the group's relative set lists). R-only and
  // residual conjuncts run as they do over an index.
  for (const MdJoinComponent& comp : plan->components) {
    ThetaClassification cls = ClassifyTheta(comp.theta);
    if (!cls.parts.base_only.empty()) {
      return NotCertified(kRule, "root", "θ has a B-only conjunct");
    }
    MDJ_RETURN_NOT_OK(CheckDimensionEquality(cls.parts, cert.dims, kRule));
  }
  return cert;
}

}  // namespace mdjoin
