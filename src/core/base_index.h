#ifndef MDJOIN_CORE_BASE_INDEX_H_
#define MDJOIN_CORE_BASE_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/compile.h"
#include "expr/conjuncts.h"
#include "table/key.h"
#include "table/table.h"
#include "table/table_accel.h"

namespace mdjoin {

/// Borrowed view of an encoded probe key for heterogeneous memo lookups
/// (the code-key analogue of RowKeyView in table/key.h).
struct CodeKeyView {
  const uint64_t* data;
  size_t size;
};

struct CodeKeyHash {
  using is_transparent = void;
  static size_t Mix(const uint64_t* d, size_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= d[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
  size_t operator()(const std::vector<uint64_t>& k) const {
    return Mix(k.data(), k.size());
  }
  size_t operator()(const CodeKeyView& k) const { return Mix(k.data, k.size); }
};

struct CodeKeyEqual {
  using is_transparent = void;
  static bool Eq(const uint64_t* a, size_t an, const uint64_t* b, size_t bn) {
    if (an != bn) return false;
    for (size_t i = 0; i < an; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  bool operator()(const std::vector<uint64_t>& a,
                  const std::vector<uint64_t>& b) const {
    return Eq(a.data(), a.size(), b.data(), b.size());
  }
  bool operator()(const std::vector<uint64_t>& a, const CodeKeyView& b) const {
    return Eq(a.data(), a.size(), b.data, b.size);
  }
  bool operator()(const CodeKeyView& a, const std::vector<uint64_t>& b) const {
    return Eq(a.data, a.size, b.data(), b.size());
  }
};

/// Hash index over the base-values relation B for the equi part of a
/// θ-condition (paper §4.5): given a detail tuple t, ProbeSpan() returns a
/// superset of the *relative set* Rel(t) — the B rows that can possibly be
/// updated for t — pruned from |B| to the rows agreeing on the equi keys.
///
/// Cube-aware: base rows may hold ALL in key positions (multi-granularity
/// base tables, Example 2.1/2.3). Rows are bucketed by their "ALL-mask" — the
/// subset of key positions that are ALL — with one hash map per mask, keyed
/// on the non-ALL positions only. A probe consults every mask bucket, so a
/// full d-dimensional cube costs 2^d map lookups per detail tuple, matching
/// the per-tuple update cost of the classical cube algorithms the paper
/// generalizes. For a plain (ALL-free) base table there is exactly one
/// bucket and a probe is a single lookup. A detail tuple with a NULL key
/// probes to the empty set: θ-equality never matches NULL, not even against
/// an ALL base key (the same verdict θ reaches when evaluated in full).
class BaseIndex {
 public:
  /// Builds an index over `rows` of `base` using the equi pairs of θ.
  /// Key expressions may be computed (e.g. B.month + 1). Rows whose key
  /// contains NULL are left out: NULL matches no detail value.
  static Result<BaseIndex> Build(const Table& base, const std::vector<int64_t>& rows,
                                 const std::vector<EquiPair>& equi,
                                 const Schema& detail_schema);

  /// Reusable buffers for Probe: caller-owned so a scan's probes do zero
  /// steady-state allocation. One scratch per scanning thread; a scratch must
  /// not be reused across different indexes (the memo below caches this
  /// index's candidate lists).
  struct ProbeScratch {
    std::vector<Value> computed;      // storage for non-column key expressions
    std::vector<const Value*> key;    // detail key, one pointer per equi position
    std::vector<const Value*> probe;  // per-bucket gathered probe key
    // Probe memo for multi-bucket (cube) indexes: full detail key → candidate
    // rows. Keyed on exact values (RowKeyEqual is strict Equals, no wildcard
    // semantics), so it is a pure-function cache. Capped, and abandoned after
    // a warmup window when the key cardinality is too high to pay off.
    //
    // Two keyings share the counters and cap. When every key position is a
    // plain column with a typed mirror, keys encode as one uint64 word per
    // position — int64 bits, float64 bits, or a dictionary code — plus one
    // null-tag word, so a memo probe hashes a few machine words and never
    // touches a string or allocates (`code_memo`). Otherwise keys are owned
    // Value vectors (`memo`). Only one of the two maps populates per scratch.
    std::unordered_map<RowKey, std::vector<int64_t>, RowKeyHash, RowKeyEqual> memo;
    std::unordered_map<std::vector<uint64_t>, std::vector<int64_t>, CodeKeyHash,
                       CodeKeyEqual>
        code_memo;
    std::vector<uint64_t> code_key;  // reused encode buffer, nkeys + 1 words
    int codeable = -1;               // -1 undecided, 0 Value keys, 1 code keys
    bool allow_code_keys = true;     // cleared by the use_flat_columns=false arm
    std::shared_ptr<const TableAccel> accel;  // pinned on first probe
    int64_t memo_lookups = 0;
    int64_t memo_hits = 0;
    bool memo_enabled = true;
  };

  /// A probe result borrowed from index/memo storage: valid until the next
  /// ProbeSpan call on the same scratch (a later probe may recycle the gather
  /// buffer or retire the memo). Consume immediately.
  struct ProbeResult {
    const int64_t* rows = nullptr;
    int64_t count = 0;
    bool empty() const { return count == 0; }
  };

  /// Returns every indexed base row whose key θ-matches detail row
  /// `detail_row`, as a span. Single-bucket hits and memo hits alias index /
  /// memo storage directly — no per-probe copying; only multi-bucket misses
  /// gather through `gather` (clobbered). If some detail key value is ALL
  /// (possible when a cuboid feeds another MD-join), falls back to an
  /// exhaustive wildcard walk.
  ///
  /// Plain-column detail keys are read straight from the column (no Value
  /// copy, no closure call) and buckets are probed through RowKeyView
  /// heterogeneous lookup, so the per-tuple cost is hashing alone.
  ProbeResult ProbeSpan(const Table& detail, int64_t detail_row,
                        ProbeScratch* scratch, std::vector<int64_t>* gather) const;

  /// Number of distinct ALL-masks (== hash maps) in the index.
  int64_t num_masks() const { return static_cast<int64_t>(buckets_.size()); }

  int num_keys() const { return static_cast<int>(detail_keys_.size()); }

 private:
  using Bucket = std::unordered_map<RowKey, std::vector<int64_t>, RowKeyHash, RowKeyEqual>;

  struct MaskBucket {
    uint64_t all_mask;                // bit i set => key position i is ALL
    std::vector<int> probe_positions; // key positions that participate (non-ALL)
    Bucket map;
  };

  std::vector<CompiledExpr> detail_keys_;
  std::vector<int> detail_cols_;  // plain-column key positions (else -1)
  std::vector<MaskBucket> buckets_;
  // Rows whose base-side key evaluation produced ALL in *every* position are
  // still regular bucket entries (empty probe key). Nothing else special.
};

}  // namespace mdjoin

#endif  // MDJOIN_CORE_BASE_INDEX_H_
