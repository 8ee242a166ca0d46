#include "common/query_guard.h"

#include <algorithm>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdjoin {

namespace {

/// Registry-backed trip accounting: one counter per trip kind plus a total,
/// and an instant trace event so the trip is visible on the worker track
/// that observed it first. Called once per guard (first error wins), so
/// nothing here is hot.
void RecordTrip(const Status& status) {
  static Counter* total = MetricsRegistry::Global().GetCounter(
      "mdjoin_guard_trips_total", "query-guard trips, all causes");
  static Counter* cancelled = MetricsRegistry::Global().GetCounter(
      "mdjoin_guard_trips_cancelled_total", "guard trips: cooperative cancellation");
  static Counter* deadline = MetricsRegistry::Global().GetCounter(
      "mdjoin_guard_trips_deadline_total", "guard trips: wall-clock deadline");
  static Counter* exhausted = MetricsRegistry::Global().GetCounter(
      "mdjoin_guard_trips_resource_exhausted_total",
      "guard trips: memory/row/pair budget exhausted");
  static Counter* other = MetricsRegistry::Global().GetCounter(
      "mdjoin_guard_trips_other_total", "guard trips: propagated failures");
  total->Increment();
  const char* kind = "error";
  switch (status.code()) {
    case StatusCode::kCancelled:
      cancelled->Increment();
      kind = "cancelled";
      break;
    case StatusCode::kDeadlineExceeded:
      deadline->Increment();
      kind = "deadline";
      break;
    case StatusCode::kResourceExhausted:
      exhausted->Increment();
      kind = "resource_exhausted";
      break;
    default:
      other->Increment();
      break;
  }
  TraceInstant("guard_trip", kind);
}

}  // namespace

Status QueryGuardOptions::Validate() const {
  if (timeout_ms < 0) {
    return Status::InvalidArgument("QueryGuardOptions: negative timeout_ms ",
                                   timeout_ms, " (0 means no deadline)");
  }
  if (timeout_ms > kMaxTimeoutMs) {
    return Status::InvalidArgument("QueryGuardOptions: timeout_ms ", timeout_ms,
                                   " overflows the deadline clock (max ",
                                   kMaxTimeoutMs, ")");
  }
  if (memory_budget_bytes < 0) {
    return Status::InvalidArgument("QueryGuardOptions: negative memory_budget_bytes ",
                                   memory_budget_bytes, " (0 means off)");
  }
  if (memory_hard_limit_bytes < 0) {
    return Status::InvalidArgument(
        "QueryGuardOptions: negative memory_hard_limit_bytes ",
        memory_hard_limit_bytes, " (0 means unlimited)");
  }
  if (memory_budget_bytes > 0 && memory_hard_limit_bytes > 0 &&
      memory_budget_bytes > memory_hard_limit_bytes) {
    return Status::InvalidArgument(
        "QueryGuardOptions: soft memory budget ", memory_budget_bytes,
        " exceeds hard limit ", memory_hard_limit_bytes,
        " — degradation could never engage before the hard failure");
  }
  if (max_detail_rows < 0) {
    return Status::InvalidArgument("QueryGuardOptions: negative max_detail_rows ",
                                   max_detail_rows, " (0 means off)");
  }
  if (max_candidate_pairs < 0) {
    return Status::InvalidArgument("QueryGuardOptions: negative max_candidate_pairs ",
                                   max_candidate_pairs, " (0 means off)");
  }
  if (check_stride < 1) {
    return Status::InvalidArgument("QueryGuardOptions: check_stride ", check_stride,
                                   " must be >= 1");
  }
  return Status::OK();
}

QueryGuard::QueryGuard(const QueryGuardOptions& options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  // Invalid budgets fail the query at its first Check() instead of silently
  // wrapping (a negative budget used to read as "off"; an overflowing
  // timeout used to wrap the deadline into the past).
  if (Status valid = options_.Validate(); !valid.ok()) Trip(std::move(valid));
}

void QueryGuard::Cancel() {
  Trip(Status::Cancelled("query cancelled by caller"));
}

void QueryGuard::Trip(Status status) {
  if (status.ok()) return;
  {
    MutexLock lock(mu_);
    if (tripped_.load(std::memory_order_relaxed)) return;  // first error wins
    status_ = status;
    tripped_.store(true, std::memory_order_release);
  }
  RecordTrip(status);
}

Status QueryGuard::TripStatus() const {
  if (!tripped()) return Status::OK();
  MutexLock lock(mu_);
  return status_;
}

Status QueryGuard::Check(int64_t rows_delta, int64_t pairs_delta) {
  // Failpoints simulate a mid-scan cancel / deadline expiry deterministically:
  // they fire at a stride boundary, exactly where the real events are seen.
  if (MDJ_FAILPOINT("query_guard:cancel")) Cancel();
  if (MDJ_FAILPOINT("query_guard:deadline")) {
    Trip(Status::DeadlineExceeded("deadline expired (failpoint query_guard:deadline)"));
  }

  const int64_t rows = rows_delta > 0
                           ? rows_.fetch_add(rows_delta, std::memory_order_relaxed) +
                                 rows_delta
                           : rows_.load(std::memory_order_relaxed);
  const int64_t pairs = pairs_delta > 0
                            ? pairs_.fetch_add(pairs_delta, std::memory_order_relaxed) +
                                  pairs_delta
                            : pairs_.load(std::memory_order_relaxed);

  if (tripped()) return TripStatus();

  if (options_.timeout_ms > 0) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
    if (elapsed_ms >= options_.timeout_ms) {
      Trip(Status::DeadlineExceeded("query exceeded deadline of ", options_.timeout_ms,
                                    "ms (elapsed ", elapsed_ms, "ms)"));
      return TripStatus();
    }
  }
  if (options_.max_detail_rows > 0 && rows > options_.max_detail_rows) {
    Trip(Status::ResourceExhausted("detail-row budget exceeded: scanned ", rows,
                                   " rows, budget ", options_.max_detail_rows));
    return TripStatus();
  }
  if (options_.max_candidate_pairs > 0 && pairs > options_.max_candidate_pairs) {
    Trip(Status::ResourceExhausted("candidate-pair budget exceeded: tested ", pairs,
                                   " pairs, budget ", options_.max_candidate_pairs));
    return TripStatus();
  }
  return Status::OK();
}

Status QueryGuard::ReserveBytes(int64_t bytes, const char* what) {
  if (bytes < 0) bytes = 0;
  if (MDJ_FAILPOINT("query_guard:reserve")) {
    Status s = Status::ResourceExhausted(
        "allocation of ", bytes, " bytes for ", what,
        " failed (failpoint query_guard:reserve)");
    Trip(s);
    return s;
  }
  const int64_t now = reserved_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Track the peak; racy max-update loop is the standard idiom.
  int64_t peak = high_water_.load(std::memory_order_relaxed);
  while (now > peak &&
         !high_water_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  if (options_.memory_hard_limit_bytes > 0 && now > options_.memory_hard_limit_bytes) {
    reserved_.fetch_sub(bytes, std::memory_order_relaxed);
    Status s = Status::ResourceExhausted(
        "memory hard limit exceeded reserving ", bytes, " bytes for ", what, ": ",
        now, " > limit ", options_.memory_hard_limit_bytes);
    Trip(s);
    return s;
  }
  return Status::OK();
}

void QueryGuard::ReleaseBytes(int64_t bytes) {
  if (bytes > 0) reserved_.fetch_sub(bytes, std::memory_order_relaxed);
}

int64_t QueryGuard::remaining_soft_bytes() const {
  if (!has_memory_budget()) return std::numeric_limits<int64_t>::max();
  const int64_t remaining = options_.memory_budget_bytes - bytes_reserved();
  return remaining > 0 ? remaining : 0;
}

int64_t QueryGuard::headroom_bytes() const {
  int64_t headroom = remaining_soft_bytes();
  const int64_t hard = options_.memory_hard_limit_bytes;
  if (hard > 0) headroom = std::min(headroom, std::max<int64_t>(hard - bytes_reserved(), 0));
  return headroom;
}

Status ScopedReservation::Reserve(QueryGuard* guard, int64_t bytes, const char* what) {
  Release();
  if (guard == nullptr) return Status::OK();
  MDJ_RETURN_NOT_OK(guard->ReserveBytes(bytes, what));
  guard_ = guard;
  bytes_ = bytes;
  return Status::OK();
}

void ScopedReservation::Release() {
  if (guard_ != nullptr) guard_->ReleaseBytes(bytes_);
  guard_ = nullptr;
  bytes_ = 0;
}

}  // namespace mdjoin
