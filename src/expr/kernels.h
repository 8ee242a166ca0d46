#ifndef MDJOIN_EXPR_KERNELS_H_
#define MDJOIN_EXPR_KERNELS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/simd.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "table/table.h"
#include "table/table_accel.h"

namespace mdjoin {

/// Work counters for one PredicateKernels instance, accumulated by the caller
/// into MdJoinStats at pass/block granularity.
struct KernelStats {
  int64_t kernel_invocations = 0;  // columnar kernel × block applications
  int64_t fallback_rows = 0;       // rows filtered by per-row expression eval
  int64_t dense_blocks = 0;        // blocks that finished with every row live
};

/// Result of filtering one block. When `dense` is true every one of the
/// `count` == n block rows survived and `sel` was never written; otherwise
/// sel[0..count) holds the surviving lane indices (ascending).
struct BlockFilter {
  int count = 0;
  bool dense = false;
};

/// A conjunct list over the detail relation compiled for block-at-a-time
/// evaluation. Each conjunct becomes the cheapest plan its shape admits, and
/// conjuncts run in cost order, each shrinking the live set:
///
///   1. flat     — the column has a typed mirror (table/table_accel.h) and
///                 the conjunct is `col <cmp> literal` or `col IN (...)`:
///                 evaluated over the primitive payload array. While the
///                 block is still dense this is a SIMD bitmask compare
///                 (common/simd.h) — string predicates run as int32 compares
///                 against dictionary codes — and a block whose mask stays
///                 all-ones never materializes a selection vector at all.
///   2. columnar — same shapes without a typed mirror: per-row typed loops
///                 over the Value cells driven by the selection vector.
///   3. generic  — everything else: a per-row CompiledExpr fallback inside
///                 the same selection-vector pass.
///
/// Literals that cannot match a flat column's type compile to constant
/// plans (never-true / true-for-non-null) instead of per-row work.
///
/// Comparison semantics are CompareHolds and MatchesAny (expr/eval_ops.h),
/// which the per-cell fallbacks call directly: `=` is θ-equality (ALL
/// wildcard), `<>` is false on NULL, ordered comparisons are false for
/// NULL/ALL and for mixed string/numeric operands, and float `<=` / `>=`
/// treat NaN as matching (Value::Compare orders NaN "equal" to everything) —
/// see simd::CmpOp.
class PredicateKernels {
 public:
  PredicateKernels() = default;

  /// Compiles `conjuncts`, which must reference only the detail side (the
  /// MD-join passes ThetaParts::detail_only). `accel` is the detail table's
  /// typed mirror (null disables flat plans — the Value paths still run);
  /// `level` selects the SIMD instruction set for dense compares.
  static Result<PredicateKernels> Compile(
      const std::vector<ExprPtr>& conjuncts, const Schema& detail_schema,
      std::shared_ptr<const TableAccel> accel, simd::Level level);

  /// Filters detail rows [block_start, block_start + n). The block starts
  /// dense (all rows live); flat predicates evaluate as bitmask kernels until
  /// one of them kills a row, at which point the mask compresses into `sel`
  /// and the remaining predicates run sparse. `mask_scratch` must hold
  /// 2 * simd::MaskWords(n) words; `sel` must hold n entries and is only
  /// written when the result is not dense.
  BlockFilter FilterBlock(const Table& detail, int64_t block_start, int n,
                          uint32_t* sel, uint64_t* mask_scratch,
                          KernelStats* stats) const;

  bool empty() const { return preds_.empty(); }
  int num_columnar() const { return num_columnar_; }
  int num_fallback() const { return static_cast<int>(preds_.size()) - num_columnar_; }
  int num_flat() const { return num_flat_; }
  simd::Level level() const { return level_; }

 private:
  enum class PredKind { kCompare, kInList, kGeneric };

  /// Typed-payload plan for one predicate, decided at compile time from the
  /// column representation and the literal's type.
  enum class FlatOp {
    kNone,        // no typed mirror / untranslatable → Value path
    kNever,       // statically false for every row (NULL literal, absent
                  // dictionary string under =, type-mismatched compare, ...)
    kAllNotNull,  // true exactly for non-null rows (ALL literal under =,
                  // type-mismatched <>, ...)
    kCmpI64,      // i64 payload <cmp> i64 literal — dense SIMD
    kCmpF64,      // f64 payload <cmp> f64 literal — dense SIMD
    kCmpI64F64,   // i64 payload: double(x) <cmp> f64 literal — scalar flat
    kCmpCode,     // dict codes <cmp> translated code threshold — dense SIMD
    kInI64,       // i64 payload ∈ i64 set
    kInF64,       // f64 payload ∈ f64 set
    kInCode,      // dict codes ∈ code set
  };

  struct Pred {
    PredKind kind = PredKind::kGeneric;
    int col = -1;                   // kCompare / kInList: detail column index
    BinaryOp op = BinaryOp::kEq;    // kCompare
    Value literal;                  // kCompare
    std::vector<Value> candidates;  // kInList
    CompiledExpr generic;           // kGeneric

    FlatOp flat = FlatOp::kNone;
    simd::CmpOp cmp = simd::CmpOp::kEq;  // kCmp*
    int64_t i64_lit = 0;
    double f64_lit = 0.0;
    int32_t code_lit = 0;
    std::vector<int64_t> in_i64;
    std::vector<double> in_f64;
    std::vector<int32_t> in_codes;
  };

  void PlanFlat(Pred* p) const;

  std::vector<Pred> preds_;
  int num_columnar_ = 0;
  int num_flat_ = 0;
  simd::Level level_ = simd::Level::kScalar;
  std::shared_ptr<const TableAccel> accel_;  // keeps payload arrays alive
};

}  // namespace mdjoin

#endif  // MDJOIN_EXPR_KERNELS_H_
