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
/// on the non-ALL positions only, and a probe walks every bucket: a full
/// d-dimensional cube costs 2^d lookups. A plain (ALL-free) base table has
/// exactly one bucket and a probe is a single lookup. A cube B generated
/// from R itself skips the index altogether (GroupIdMap, core/mdjoin.h). A
/// detail tuple with a NULL key probes to the empty set: θ-equality never
/// matches NULL, not even against an ALL base key (the same verdict θ
/// reaches when evaluated in full).
class BaseIndex {
 public:
  /// Builds an index over `rows` of `base` using the equi pairs of θ. Key
  /// expressions may be computed (e.g. B.month + 1). Rows whose key contains
  /// NULL are left out: NULL matches no detail value.
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
    // Code-key memo for multi-bucket (cube) indexes: full detail key →
    // candidate rows, used when every key position is a plain column with a
    // typed mirror. Keys encode as one uint64 word per position — int64
    // bits, float64 bits, or a dictionary code — plus one null-tag word, so
    // a memo probe hashes a few machine words and never touches a string or
    // allocates. Capped, and abandoned after a warmup window
    // (memo_lookups / memo_hits) when the key cardinality is too high to pay
    // off. `memo_enabled` gates this memo only.
    std::unordered_map<std::vector<uint64_t>, std::vector<int64_t>, CodeKeyHash,
                       CodeKeyEqual>
        code_memo;
    std::vector<uint64_t> code_key;  // reused encode buffer, nkeys + 1 words
    int codeable = -1;               // -1 undecided, 0 Value keys, 1 code keys
    bool allow_code_keys = true;     // cleared when probing a foreign chunk
    std::shared_ptr<const TableAccel> accel;  // pinned on first probe
    int64_t memo_lookups = 0;
    int64_t memo_hits = 0;
    bool memo_enabled = true;
    // Probes of a multi-bucket index with a non-NULL key, and those answered
    // by a code-key memo hit instead of the per-bucket walk.
    int64_t probe_lookups = 0;
    int64_t probe_hits = 0;
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
  /// `detail_row`, as a span. It tries the code-key memo, and only then walks
  /// the buckets. Single-bucket hits and memo hits alias index / memo storage
  /// directly — no per-probe copying; only multi-bucket walks gather through
  /// `gather` (clobbered). If some detail key value is ALL (possible
  /// when a cuboid feeds another MD-join), the walk matches it as a wildcard.
  ///
  /// Plain-column detail keys are read straight from the column (no Value
  /// copy, no program run) and buckets are probed through RowKeyView
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

  /// The per-bucket walk for the key in `scratch->key`: each bucket's own
  /// rows matching it, in bucket order.
  ProbeResult Walk(ProbeScratch* scratch, bool any_all, std::vector<int64_t>* gather) const;

  std::vector<CompiledExpr> detail_keys_;
  std::vector<int> detail_cols_;  // plain-column key positions (else -1)
  std::vector<MaskBucket> buckets_;
};

}  // namespace mdjoin

#endif  // MDJOIN_CORE_BASE_INDEX_H_
