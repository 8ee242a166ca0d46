#ifndef MDJOIN_COMMON_QUERY_GUARD_H_
#define MDJOIN_COMMON_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace mdjoin {

/// Limits enforced by a QueryGuard. Every limit defaults to "off" (0), so a
/// default-constructed guard only supports cooperative cancellation.
///
/// Negative or overflow-prone values are *invalid*, not "off": call
/// Validate() before handing options to a guard (the admission layer does),
/// or rely on the QueryGuard constructor, which latches a Validate() failure
/// as an immediate kInvalidArgument trip so the query fails on its first
/// Check() instead of silently wrapping a budget around zero.
struct QueryGuardOptions {
  /// Wall-clock deadline relative to guard construction, in milliseconds.
  /// 0 = off (no deadline). Capped by Validate() at kMaxTimeoutMs so the
  /// deadline arithmetic cannot overflow steady_clock's nanosecond range.
  int64_t timeout_ms = 0;

  /// Soft memory budget in bytes; 0 = off. Every MD-join route reacts to
  /// pressure against this budget by *degrading to multi-pass* (Theorem
  /// 4.1: lower base_rows_per_pass, pay extra scans of R) instead of
  /// failing. When both budgets are set, must be <= memory_hard_limit_bytes.
  int64_t memory_budget_bytes = 0;

  /// Hard memory ceiling in bytes: a reservation that would cross it fails
  /// with kResourceExhausted. 0 = off (unlimited).
  int64_t memory_hard_limit_bytes = 0;

  /// Budget on detail rows scanned (summed across fragments/passes);
  /// 0 = off.
  int64_t max_detail_rows = 0;

  /// Budget on candidate (b, t) pairs tested; 0 = off.
  int64_t max_candidate_pairs = 0;

  /// Hot loops consult the guard every `check_stride` detail rows, so a
  /// cancel/deadline is observed within one stride per worker. 4096 keeps the
  /// overhead of the per-row countdown under ~2% on the scan benches.
  /// Must be >= 1 (there is no "off": a non-positive stride would make the
  /// GuardTicket countdown wrap).
  int64_t check_stride = 4096;

  /// Upper bound Validate() places on timeout_ms: ~31 years. Far beyond any
  /// real deadline, yet small enough that start + milliseconds(timeout_ms)
  /// stays inside steady_clock's int64 nanosecond representation.
  static constexpr int64_t kMaxTimeoutMs = 1'000'000'000'000;

  /// Rejects option sets that a guard could not enforce faithfully: any
  /// negative limit, timeout_ms > kMaxTimeoutMs (deadline arithmetic would
  /// overflow), check_stride < 1, or a soft memory budget above the hard
  /// limit. OK means every field is either off (0) or a usable bound.
  Status Validate() const;
};

/// Per-query resource governor threaded through the execution stack via
/// MdJoinOptions::guard. One guard instance is shared by every operator,
/// pass, and parallel fragment of a query:
///
///  - cooperative cancellation: Cancel() from any thread; scans observe it at
///    the next stride check and return kCancelled;
///  - deadline: wall-clock timeout checked at the same stride;
///  - memory accounting: ReserveBytes/ReleaseBytes track engine-estimated
///    bytes (base-index build, aggregate states, materialized outputs)
///    against a soft budget (degrade) and a hard limit (fail);
///  - work budgets: caps on detail rows scanned and candidate pairs tested.
///
/// First-error-wins: the first trip (cancel, deadline, budget, or a failed
/// parallel fragment) is latched and every subsequent Check() on any thread
/// returns that same status, which is how sibling fragments short-circuit.
/// All methods are thread-safe.
class QueryGuard {
 public:
  explicit QueryGuard(const QueryGuardOptions& options = {});

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// Requests cooperative cancellation (idempotent, callable from any thread).
  void Cancel();

  /// Latches `status` as the query's outcome if nothing tripped before.
  /// Non-OK only; used by the parallel layer to propagate fragment failures.
  void Trip(Status status) MDJ_EXCLUDES(mu_);

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// The latched failure, or OK when the guard has not tripped.
  Status TripStatus() const MDJ_EXCLUDES(mu_);

  /// Accounts `rows_delta` scanned detail rows and `pairs_delta` candidate
  /// pairs, then checks (in order) latched trips, the deadline, and the work
  /// budgets. Called from hot loops at stride granularity — one call per
  /// `check_stride` rows — and once with zero deltas at operator entry so a
  /// pre-issued cancel is observed before any work.
  Status Check(int64_t rows_delta = 0, int64_t pairs_delta = 0);

  /// Reserves `bytes` against the hard limit; `what` names the consumer for
  /// the error message. The failpoint "query_guard:reserve" forces a failure
  /// here to exercise allocation-error paths.
  Status ReserveBytes(int64_t bytes, const char* what);

  void ReleaseBytes(int64_t bytes);

  int64_t bytes_reserved() const { return reserved_.load(std::memory_order_relaxed); }
  int64_t bytes_high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  bool has_memory_budget() const { return options_.memory_budget_bytes > 0; }

  /// Soft budget headroom: memory_budget_bytes - bytes_reserved(), clamped at
  /// 0; int64 max when no soft budget is configured. The MD-join sizes its
  /// per-pass base partition to fit this.
  int64_t remaining_soft_bytes() const;

  /// Bytes a reservation can take now without crossing the soft budget or
  /// the hard limit: the smaller of the two headrooms, clamped at 0; int64
  /// max when neither is configured. Optional memory (extra worker partials,
  /// a group-id map) is taken only from here.
  int64_t headroom_bytes() const;

  int64_t detail_rows_seen() const { return rows_.load(std::memory_order_relaxed); }
  int64_t candidate_pairs_seen() const {
    return pairs_.load(std::memory_order_relaxed);
  }

  int64_t check_stride() const { return options_.check_stride; }
  const QueryGuardOptions& options() const { return options_; }

 private:
  const QueryGuardOptions options_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<bool> tripped_{false};
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> high_water_{0};
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> pairs_{0};
  mutable Mutex mu_;
  Status status_ MDJ_GUARDED_BY(mu_);  // first trip, latched
};

/// Per-scan helper for hot loops: counts rows/pairs locally and consults the
/// shared guard only every `check_stride` rows. With a null guard each Tick
/// is a single predictable branch, which is what keeps guard-disabled scans
/// at their old speed.
class GuardTicket {
 public:
  /// `count_rows` = false gives a pure liveness ticket: it checks the guard
  /// every stride without charging the detail-row budget (used by loops over
  /// output rows rather than detail rows).
  explicit GuardTicket(QueryGuard* guard, bool count_rows = true)
      : guard_(guard),
        count_rows_(count_rows),
        stride_(guard != nullptr ? guard->check_stride() : 0),
        countdown_(stride_) {}

  /// Accounts one scanned detail row plus `pairs` candidate pairs; returns
  /// non-OK at stride boundaries once the guard trips.
  Status Tick(int64_t pairs = 0) {
    if (guard_ == nullptr) return Status::OK();
    pending_pairs_ += pairs;
    if (--countdown_ > 0) return Status::OK();
    return Flush(stride_);
  }

  /// Accounts `rows` scanned detail rows plus `pairs` candidate pairs in one
  /// call — the block-at-a-time counterpart of Tick(). Budgets stay exact
  /// (every row/pair is charged); the guard is consulted whenever the stride
  /// countdown is exhausted, so trip latency is at most stride + block rows.
  Status TickBlock(int64_t rows, int64_t pairs) {
    if (guard_ == nullptr) return Status::OK();
    pending_pairs_ += pairs;
    countdown_ -= rows;
    if (countdown_ > 0) return Status::OK();
    return Flush(stride_ - countdown_);
  }

  /// Flushes rows/pairs accumulated since the last stride check and performs
  /// a final guard check. Call at scan end so budgets stay exact.
  Status Finish() {
    if (guard_ == nullptr) return Status::OK();
    return Flush(stride_ - countdown_);
  }

 private:
  Status Flush(int64_t rows) {
    countdown_ = stride_;
    int64_t pairs = pending_pairs_;
    pending_pairs_ = 0;
    return guard_->Check(count_rows_ ? rows : 0, pairs);
  }

  QueryGuard* guard_;
  bool count_rows_;
  int64_t stride_;
  int64_t countdown_;
  int64_t pending_pairs_ = 0;
};

/// RAII memory reservation: releases on destruction. Movable, not copyable.
class ScopedReservation {
 public:
  ScopedReservation() = default;
  ~ScopedReservation() { Release(); }
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ScopedReservation(ScopedReservation&& other) noexcept
      : guard_(other.guard_), bytes_(other.bytes_) {
    other.guard_ = nullptr;
    other.bytes_ = 0;
  }

  /// Reserves `bytes` on `guard` (no-op when guard is null). A reservation
  /// already held is released first.
  Status Reserve(QueryGuard* guard, int64_t bytes, const char* what);

  void Release();

  int64_t bytes() const { return bytes_; }

 private:
  QueryGuard* guard_ = nullptr;
  int64_t bytes_ = 0;
};

}  // namespace mdjoin

#endif  // MDJOIN_COMMON_QUERY_GUARD_H_
