#ifndef MDJOIN_AGG_FLAT_STATE_H_
#define MDJOIN_AGG_FLAT_STATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.h"
#include "common/logging.h"
#include "types/value.h"

namespace mdjoin {

/// Per-aggregate accumulator storage for every base row of one MD-join, in
/// the layout the vectorized evaluator wants: when the function declares a
/// FlatAggKind, state is struct-of-arrays — one contiguous typed vector per
/// accumulator field (count, isum/dsum, best, ...) plus a validity byte per
/// group — so the scan's update is a non-virtual switch on the kind followed
/// by an indexed store, instead of a unique_ptr deref + virtual Update per
/// matched pair. Functions without a flat kind (holistic built-ins, UDAFs)
/// transparently fall back to one heap AggregateState per group behind the
/// same Update/Merge/Finalize surface, so callers never branch on the
/// representation.
///
/// The flat kernels reproduce the corresponding built-ins' semantics exactly
/// (NULL skipping, ALL handling, sum's int/float promotion); this is enforced
/// by the A/B tests in tests/vectorized_test.cc.
class AggStateColumn {
 public:
  AggStateColumn() = default;
  AggStateColumn(AggStateColumn&&) = default;
  AggStateColumn& operator=(AggStateColumn&&) = default;

  /// Builds accumulators for `groups` groups of function `fn` (not owned;
  /// must outlive the column).
  static AggStateColumn Make(const AggregateFunction* fn, int64_t groups);

  bool is_flat() const { return kind_ != FlatAggKind::kNone; }
  int64_t groups() const { return groups_; }

  /// Folds `v` into group `g`. Hot path: inline kind dispatch, no virtual
  /// call, no heap access for flat kinds.
  void Update(int64_t g, const Value& v) {
    const size_t i = static_cast<size_t>(g);
    switch (kind_) {
      case FlatAggKind::kCount:
        i64_[i] += static_cast<int64_t>(!v.is_null());
        return;
      case FlatAggKind::kSum:
        if (v.is_int64()) {
          int64_t x = v.int64();
          i64_[i] += x;
          f64_[i] += static_cast<double>(x);
          flags_[i] |= kAny;
        } else if (v.is_float64()) {
          f64_[i] += v.float64();
          flags_[i] |= kAny | kIsFloat;
        }
        return;
      case FlatAggKind::kMin:
      case FlatAggKind::kMax:
        UpdateExtremum(i, v);
        return;
      case FlatAggKind::kAvg:
        if (v.is_int64()) {
          f64_[i] += static_cast<double>(v.int64());
          ++i64_[i];
        } else if (v.is_float64()) {
          f64_[i] += v.float64();
          ++i64_[i];
        }
        return;
      case FlatAggKind::kNone:
        fn_->Update(heap_[i].get(), v);
        return;
    }
  }

  /// count(*) fast path: every matched pair counts, no Value is fabricated.
  void UpdateCountStar(int64_t g) {
    if (kind_ == FlatAggKind::kCount) {
      ++i64_[static_cast<size_t>(g)];
    } else {
      fn_->Update(heap_[static_cast<size_t>(g)].get(), Value::Int64(1));
    }
  }

  /// Folds the same value into `n` groups — the shape of the vectorized match
  /// loop, where one detail row matched a whole candidate list. Kind dispatch
  /// and argument decoding happen once; the per-group fold is a tight typed
  /// loop. Semantically identical to calling Update(groups[k], v) n times.
  void UpdateMany(const int64_t* groups, int64_t n, const Value& v) {
    switch (kind_) {
      case FlatAggKind::kCount:
        if (v.is_null()) return;
        for (int64_t k = 0; k < n; ++k) ++i64_[static_cast<size_t>(groups[k])];
        return;
      case FlatAggKind::kSum:
        if (v.is_int64()) {
          const int64_t x = v.int64();
          const double d = static_cast<double>(x);
          for (int64_t k = 0; k < n; ++k) {
            const size_t i = static_cast<size_t>(groups[k]);
            i64_[i] += x;
            f64_[i] += d;
            flags_[i] |= kAny;
          }
        } else if (v.is_float64()) {
          const double d = v.float64();
          for (int64_t k = 0; k < n; ++k) {
            const size_t i = static_cast<size_t>(groups[k]);
            f64_[i] += d;
            flags_[i] |= kAny | kIsFloat;
          }
        }
        return;
      case FlatAggKind::kMin:
      case FlatAggKind::kMax:
        if (v.is_null() || v.is_all()) return;
        for (int64_t k = 0; k < n; ++k) {
          UpdateExtremum(static_cast<size_t>(groups[k]), v);
        }
        return;
      case FlatAggKind::kAvg: {
        double d;
        if (v.is_int64()) {
          d = static_cast<double>(v.int64());
        } else if (v.is_float64()) {
          d = v.float64();
        } else {
          return;
        }
        for (int64_t k = 0; k < n; ++k) {
          const size_t i = static_cast<size_t>(groups[k]);
          f64_[i] += d;
          ++i64_[i];
        }
        return;
      }
      case FlatAggKind::kNone:
        for (int64_t k = 0; k < n; ++k) {
          fn_->Update(heap_[static_cast<size_t>(groups[k])].get(), v);
        }
        return;
    }
  }

  /// Typed UpdateMany for a non-null int64 argument cell: semantically
  /// UpdateMany(groups, n, Value::Int64(x)) but with no Value fabricated and
  /// no per-call storage-type dispatch — the shape the scan hits when the
  /// detail column has a typed mirror (table/table_accel.h).
  void UpdateManyI64(const int64_t* groups, int64_t n, int64_t x) {
    switch (kind_) {
      case FlatAggKind::kCount:
        for (int64_t k = 0; k < n; ++k) ++i64_[static_cast<size_t>(groups[k])];
        return;
      case FlatAggKind::kSum: {
        const double d = static_cast<double>(x);
        for (int64_t k = 0; k < n; ++k) {
          const size_t i = static_cast<size_t>(groups[k]);
          i64_[i] += x;
          f64_[i] += d;
          flags_[i] |= kAny;
        }
        return;
      }
      case FlatAggKind::kMin:
      case FlatAggKind::kMax:
        for (int64_t k = 0; k < n; ++k) {
          UpdateExtremumI64(static_cast<size_t>(groups[k]), x);
        }
        return;
      case FlatAggKind::kAvg: {
        const double d = static_cast<double>(x);
        for (int64_t k = 0; k < n; ++k) {
          const size_t i = static_cast<size_t>(groups[k]);
          f64_[i] += d;
          ++i64_[i];
        }
        return;
      }
      case FlatAggKind::kNone: {
        const Value v = Value::Int64(x);
        for (int64_t k = 0; k < n; ++k) {
          fn_->Update(heap_[static_cast<size_t>(groups[k])].get(), v);
        }
        return;
      }
    }
  }

  /// Typed UpdateMany for a non-null float64 argument cell.
  void UpdateManyF64(const int64_t* groups, int64_t n, double x) {
    switch (kind_) {
      case FlatAggKind::kCount:
        for (int64_t k = 0; k < n; ++k) ++i64_[static_cast<size_t>(groups[k])];
        return;
      case FlatAggKind::kSum:
        for (int64_t k = 0; k < n; ++k) {
          const size_t i = static_cast<size_t>(groups[k]);
          f64_[i] += x;
          flags_[i] |= kAny | kIsFloat;
        }
        return;
      case FlatAggKind::kMin:
      case FlatAggKind::kMax:
        for (int64_t k = 0; k < n; ++k) {
          UpdateExtremumF64(static_cast<size_t>(groups[k]), x);
        }
        return;
      case FlatAggKind::kAvg:
        for (int64_t k = 0; k < n; ++k) {
          const size_t i = static_cast<size_t>(groups[k]);
          f64_[i] += x;
          ++i64_[i];
        }
        return;
      case FlatAggKind::kNone: {
        const Value v = Value::Float64(x);
        for (int64_t k = 0; k < n; ++k) {
          fn_->Update(heap_[static_cast<size_t>(groups[k])].get(), v);
        }
        return;
      }
    }
  }

  /// UpdateCountStar over a candidate list; one branch, then a tight loop.
  void UpdateCountStarMany(const int64_t* groups, int64_t n) {
    if (kind_ == FlatAggKind::kCount) {
      for (int64_t k = 0; k < n; ++k) ++i64_[static_cast<size_t>(groups[k])];
    } else {
      for (int64_t k = 0; k < n; ++k) {
        fn_->Update(heap_[static_cast<size_t>(groups[k])].get(), Value::Int64(1));
      }
    }
  }

  /// Combines `other`'s accumulators group-wise into this column (Theorem
  /// 4.1 union / detail-split parallelism). Both sides must come from the
  /// same function and group count.
  void Merge(const AggStateColumn& other);

  /// Merge restricted to groups [lo, hi) — the unit the parallel merge tree
  /// interleaves with guard checks so cancellation lands mid-merge instead of
  /// after a whole |B|-wide column. Merge(other) == MergeRange(other, 0,
  /// groups()).
  void MergeRange(const AggStateColumn& other, int64_t lo, int64_t hi);

  /// Reports group `g` (identity Value for untouched groups, matching the
  /// function's Finalize on a fresh state).
  Value Finalize(int64_t g) const;

 private:
  static constexpr uint8_t kAny = 1;      // group has absorbed >= 1 value
  static constexpr uint8_t kIsFloat = 2;  // sum saw a float64 input

  void UpdateExtremum(size_t i, const Value& v) {
    if (v.is_null() || v.is_all()) return;
    if (!(flags_[i] & kAny)) {
      flags_[i] = kAny;
      vals_[i] = v;
      return;
    }
    // Fast path for the common all-int64 column before the generic Compare.
    int c;
    if (v.is_int64() && vals_[i].is_int64()) {
      int64_t a = v.int64(), b = vals_[i].int64();
      c = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      c = v.Compare(vals_[i]);
    }
    if (kind_ == FlatAggKind::kMin ? c < 0 : c > 0) vals_[i] = v;
  }

  /// Typed extremum folds. Identical to UpdateExtremum with an Int64/Float64
  /// Value, minus the Value until one must be stored. The float compare uses
  /// strict IEEE < / > — exactly Value::Compare's verdict for doubles, with
  /// NaN never replacing the incumbent (Compare ranks it "equal").
  void UpdateExtremumI64(size_t i, int64_t x) {
    if (!(flags_[i] & kAny)) {
      flags_[i] = kAny;
      vals_[i] = Value::Int64(x);
      return;
    }
    if (vals_[i].is_int64()) {
      const int64_t b = vals_[i].int64();
      if (kind_ == FlatAggKind::kMin ? x < b : x > b) vals_[i] = Value::Int64(x);
      return;
    }
    UpdateExtremum(i, Value::Int64(x));
  }

  void UpdateExtremumF64(size_t i, double x) {
    if (!(flags_[i] & kAny)) {
      flags_[i] = kAny;
      vals_[i] = Value::Float64(x);
      return;
    }
    if (vals_[i].is_float64()) {
      const double b = vals_[i].float64();
      if (kind_ == FlatAggKind::kMin ? x < b : x > b) vals_[i] = Value::Float64(x);
      return;
    }
    UpdateExtremum(i, Value::Float64(x));
  }

  const AggregateFunction* fn_ = nullptr;
  FlatAggKind kind_ = FlatAggKind::kNone;
  int64_t groups_ = 0;
  // Flat storage; which vectors are populated depends on kind_:
  //   kCount: i64_ (count)
  //   kSum:   i64_ (int sum), f64_ (double sum), flags_ (any | is_float)
  //   kMin/kMax: vals_ (best), flags_ (any)
  //   kAvg:   f64_ (sum), i64_ (count)
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> flags_;
  std::vector<Value> vals_;
  // kNone fallback: one heap state per group, classic virtual dispatch.
  std::vector<std::unique_ptr<AggregateState>> heap_;
};

}  // namespace mdjoin

#endif  // MDJOIN_AGG_FLAT_STATE_H_
