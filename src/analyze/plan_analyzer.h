#ifndef MDJOIN_ANALYZE_PLAN_ANALYZER_H_
#define MDJOIN_ANALYZE_PLAN_ANALYZER_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/range_analysis.h"
#include "expr/conjuncts.h"
#include "optimizer/plan.h"

namespace mdjoin {

/// Static verification pass over MD-join plans.
///
/// The §4 rewrite rules each rest on a legality condition — θ-conjuncts
/// classify a certain way, an attribute binds to a base column rather than a
/// generated aggregate, the aggregate list is distributive, the base relation
/// is duplicate-free. All of these are decidable from the plan tree alone,
/// without executing anything (the dynamic property tests remain as a
/// backstop, not as the definition of legality). This header is that
/// decision procedure, split into:
///
///  - AnalyzePlan: a whole-tree pass computing, per node, the resolved output
///    schema (full expression type check against the catalog), attribute
///    provenance (which base column or aggregate output each name binds to),
///    θ-conjunct classification, and structural distinctness evidence;
///  - Certify* functions: per-rule legality certificates the optimizer rules
///    consume instead of re-deriving their preconditions privately;
///  - AnalyzerDiagnostic: the structured "why is this plan illegal" record
///    surfaced by verify_plans mode and the negative tests.

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

enum class DiagSeverity {
  kError,    // plan is illegal; executing it may produce wrong tables
  kWarning,  // suspicious but executable (e.g. certificate absent)
};

const char* DiagSeverityToString(DiagSeverity severity);

/// One finding of the analyzer. `path` addresses the offending node from the
/// root by child index ("root", "root/0", "root/0/1", ...); `rule` names the
/// invariant or theorem whose precondition failed.
struct AnalyzerDiagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  std::string path;
  std::string rule;
  std::string message;

  /// "[error] Theorem 4.3 at root/0: ...".
  std::string ToString() const;

  /// The diagnostic as a Status (InvalidArgument) for error returns.
  Status ToStatus() const;
};

// ---------------------------------------------------------------------------
// θ-conjunct classification (extends expr/conjuncts with per-conjunct labels)
// ---------------------------------------------------------------------------

/// How one conjunct of θ participates in MD-join evaluation and rewriting.
enum class ConjunctClass {
  kEquiBound,   // (B-only expr) = (R-only expr): indexable, transfers σs
  kDetailOnly,  // references R only: runs as a kernel over R (Theorem 4.2)
  kBaseOnly,    // references B only: restricts base rows up front
  kConstant,    // no column references at all
  kResidual,    // mixed non-equi: evaluated per candidate pair
};

const char* ConjunctClassToString(ConjunctClass cls);

struct ClassifiedConjunct {
  ExprPtr expr;
  ConjunctClass cls;
};

/// Full classification of a θ-condition: the raw ThetaParts plus the
/// per-conjunct labels and the attribute sets the certificates reason about.
struct ThetaClassification {
  ThetaParts parts;
  std::vector<ClassifiedConjunct> conjuncts;
  std::set<std::string> base_columns;    // every B attribute θ references
  std::set<std::string> detail_columns;  // every R attribute θ references

  /// B attributes bound by a *plain-column* equi conjunct (B.x = <R expr>),
  /// with the R-side expression each one binds to. This is the substitution
  /// Observation 4.1 applies; computed-key equi conjuncts (B.x + 1 = R.y) do
  /// not contribute because they are not invertible substitutions.
  std::vector<std::pair<std::string, ExprPtr>> equi_bound;

  bool HasEquiBinding(const std::string& base_column) const;
};

/// Classifies `theta` (constant-folds first so literal-heavy conditions
/// classify cleanly). Never fails; unclassifiable conjuncts are kResidual.
ThetaClassification ClassifyTheta(const ExprPtr& theta);

// ---------------------------------------------------------------------------
// Attribute provenance
// ---------------------------------------------------------------------------

/// Where an output attribute of a plan node comes from.
enum class AttrOrigin {
  kBaseColumn,  // a column of a catalog table, passed through untouched
  kAggregate,   // output of an MD-join aggregate
  kComputed,    // projection expression (not a plain column passthrough)
  kRenamed,     // hash-join clash suffixing ("x" -> "x_r")
};

const char* AttrOriginToString(AttrOrigin origin);

/// Provenance of one field of a node's output schema. `producer` is the node
/// that introduced the attribute (the TableRef for base columns, the MD-join
/// for aggregates, the Project for computed columns); `detail`
/// renders the definition (e.g. "sales.cust" or "sum(R.sale)").
struct AttrProvenance {
  std::string name;
  AttrOrigin origin = AttrOrigin::kBaseColumn;
  const PlanNode* producer = nullptr;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Per-node analysis
// ---------------------------------------------------------------------------

struct NodeAnalysis {
  const PlanNode* node = nullptr;
  std::string path;

  /// Resolved output schema; absent when this subtree failed to type-check
  /// (the failure is recorded as a diagnostic instead).
  std::optional<Schema> schema;

  /// One entry per schema field, parallel to schema->fields().
  std::vector<AttrProvenance> provenance;

  /// θ classification for kMdJoin, one per component; empty otherwise.
  std::vector<ThetaClassification> thetas;

  /// Structural duplicate-freedom evidence: true when this node's output
  /// rows are provably distinct from the plan shape alone (Distinct roots,
  /// cuboid generators listing no cuboid twice, and shapes that preserve
  /// distinctness). `distinct_evidence` says why.
  bool rows_distinct = false;
  std::string distinct_evidence;

  /// Looks up the provenance of an output attribute by name.
  const AttrProvenance* FindProvenance(const std::string& name) const;
};

/// Whole-plan analysis result. `nodes` is in post-order (children before
/// parents); the last entry is the root.
struct PlanAnalysis {
  std::vector<NodeAnalysis> nodes;
  std::vector<AnalyzerDiagnostic> diagnostics;

  const NodeAnalysis* Find(const PlanNode* node) const;
  const NodeAnalysis& root() const { return nodes.back(); }

  /// True when no error-severity diagnostic was recorded.
  bool ok() const;

  /// OK when ok(); otherwise the first error diagnostic as a Status, with
  /// `context` prefixed and the total error count appended.
  Status ToStatus(const char* context) const;

  std::string DiagnosticsToString() const;
};

/// Runs the full pass. Only fails outright on a null plan or empty tree;
/// illegal plans come back as ok() == false with diagnostics. Side-effect
/// free: never executes any part of the plan.
Result<PlanAnalysis> AnalyzePlan(const PlanPtr& plan, const Catalog& catalog);

// ---------------------------------------------------------------------------
// Rewrite-legality certificates (consumed by optimizer/rules.cc)
// ---------------------------------------------------------------------------

/// Observation 4.1 (base-selection transfer): for MD(σ_c(B), R, l, θ), the
/// substitution mapping every B attribute that c references to the R-side
/// expression an equi conjunct of θ binds it to. Absent when the root shape
/// does not match or some referenced attribute is not equi-bound (the
/// diagnostic names it).
struct TransferCertificate {
  std::vector<std::pair<std::string, ExprPtr>> substitution;
  /// Facts derived *through* the equi conjuncts (RangeFact::from_transfer):
  /// the Observation-4.1 range predicates the transferred selection implies
  /// on the detail side.
  std::vector<RangeFact> transferred_ranges;
};
Result<TransferCertificate> CertifyEquiTransfer(const PlanPtr& plan);

/// Statically-unsatisfiable θ: the interval abstract interpretation proves no
/// (b, t) pair can satisfy the root one-component MD-join's condition — every
/// base row's
/// aggregates are over the empty multiset, so the detail child may be
/// replaced by an empty relation without scanning R. Absent when θ is (or may
/// be) satisfiable.
struct UnsatThetaCertificate {
  std::string reason;      // which column/conjunct is impossible
  RangeAnalysis analysis;  // full fact set, for EXPLAIN
};
Result<UnsatThetaCertificate> CertifyUnsatTheta(const PlanPtr& plan);

/// Theorem 4.3 (series fusion): dependency analysis over a chain of nested
/// one-component MD-joins, innermost first. Component i's generation is one past the
/// highest generation whose aggregate outputs its θ or aggregate arguments
/// reference; same-generation components are mutually θ-independent and may
/// fuse when they share a detail relation.
struct ChainDependencyCertificate {
  std::vector<int> generation;                    // per chain element
  std::vector<std::set<std::string>> outputs;     // aggregate outputs per element
  std::vector<std::set<std::string>> base_refs;   // base-side refs per element
};
ChainDependencyCertificate CertifyChainDependencies(
    const std::vector<PlanPtr>& chain_innermost_first);

/// Theorem 4.3 (commute) / Theorem 4.4 (split): θ-independence of the outer
/// MD-join from the inner one's generated columns. Verifies that every
/// base-side attribute the outer θs and aggregate arguments reference resolves
/// to a column of the *inner base's* schema — i.e. provenance is a base
/// column, not an aggregate output of the inner MD-join. `rule` labels the
/// diagnostic.
Status CertifyOuterIndependence(const PlanPtr& plan, const Catalog& catalog,
                                const char* rule);

/// Theorem 4.4 (split): structural evidence that `base_plan`'s rows are
/// distinct. Derived bottom-up: Distinct nodes, cuboid generators that list no
/// cuboid twice (each cuboid emits one row per value combination; a repeated
/// grouping set emits each copy), and distinctness-preserving shapes above
/// them (Filter, Sort, Partition, MD-joins extending a distinct base). Absent
/// (InvalidArgument, naming the node that breaks the chain) when no evidence
/// exists — the rule refuses rather than trusting callers.
struct DistinctnessCertificate {
  std::string evidence;  // human-readable derivation, e.g. "Distinct at root/0"
};
Result<DistinctnessCertificate> CertifyBaseDistinct(const PlanPtr& base_plan);

/// Theorem 4.5 (roll-up): l is distributive and θ is exactly the
/// dimension-equality condition of the base child's cuboid. Requires a root
/// one-component MD-join over a one-cuboid CuboidBase child.
struct RollupCertificate {
  std::vector<std::string> dims;  // the cuboid's dimensions, for convenience
};
Result<RollupCertificate> CertifyRollup(const PlanPtr& plan);

/// Group-id relative sets: an MD-join whose base is generated from its own
/// detail relation R′ — a CuboidBase(R′, dims, masks), whichever generator
/// bound it (group(...) binds as the finest cuboid) — where every θ's equi
/// part is exactly the dimension-equality condition over dims (CertifyRollup's
/// check) and no θ has a B-only conjunct. The detail child is R′ itself or R′
/// under Filters, whose predicates fold into every θ. The executor then runs
/// the generator once over R′ and hands the MD-join each detail row's relative
/// set by group id (GroupIdMap, core/mdjoin.h) instead of an index over B.
struct GroupIdsCertificate {
  PlanPtr detail;                  // R′: the generator's input
  std::vector<ExprPtr> extra;      // conjuncts of the Filters between detail and R′
  std::vector<std::string> dims;   // the generator's dimensions
  std::vector<CuboidMask> masks;   // the cuboids it generates, in output order
};
Result<GroupIdsCertificate> CertifyGroupIds(const PlanPtr& plan);

}  // namespace mdjoin

#endif  // MDJOIN_ANALYZE_PLAN_ANALYZER_H_
