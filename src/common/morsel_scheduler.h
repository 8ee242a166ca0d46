#ifndef MDJOIN_COMMON_MORSEL_SCHEDULER_H_
#define MDJOIN_COMMON_MORSEL_SCHEDULER_H_

#include <atomic>
#include <cstdint>

namespace mdjoin {

/// Work-distribution cursor for morsel-driven execution (HyPer-style): the
/// unit space is `num_jobs × morsels_per_job`, where a job is one prepared
/// scan (a Theorem 4.1 base fragment of one pass) and a morsel is one unit
/// of the detail relation (a 1024-row range in memory, one block on disk).
/// Workers pull the next unit with one atomic fetch_add — there are no
/// per-worker queues to steal from, so "stealing" degenerates to the cheapest
/// possible form: an idle worker simply claims the globally next unit, and
/// skew cannot strand work on a slow thread's queue.
///
/// Units are ordered job-major (all of job 0's morsels, then job 1's, ...):
/// consecutive units usually belong to the same job, which keeps a worker on
/// one index (and one warm probe memo) for long runs and bounds the number of
/// job switches per worker by the job count.
///
/// Thread-safe; all methods are lock-free.
class MorselScheduler {
 public:
  MorselScheduler(int64_t num_jobs, int64_t morsels_per_job)
      : morsels_per_job_(morsels_per_job > 0 ? morsels_per_job : 1),
        total_(num_jobs > 0 && morsels_per_job > 0 ? num_jobs * morsels_per_job : 0) {}

  struct Morsel {
    int64_t job = 0;     // index of the prepared scan to run
    int64_t morsel = 0;  // index of the detail unit within the job
  };

  /// Claims the next unit. Returns false when the cursor has drained; a
  /// false return is counted as a steal-wait (an idle worker found no work).
  bool Next(Morsel* out) {
    const int64_t u = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (u >= total_) {
      drained_polls_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    out->job = u / morsels_per_job_;
    out->morsel = u % morsels_per_job_;
    return true;
  }

  int64_t total_morsels() const { return total_; }

  /// Units actually handed out (== total_morsels() once drained).
  int64_t dispatched() const {
    const int64_t c = cursor_.load(std::memory_order_relaxed);
    return c < total_ ? c : total_;
  }

  /// Next() calls that found the cursor already drained: each worker's final
  /// poll plus any extra polls by workers that went idle while others still
  /// ran — the visible cost of self-scheduling, reported as `steal_waits`.
  int64_t steal_waits() const { return drained_polls_.load(std::memory_order_relaxed); }

 private:
  int64_t morsels_per_job_;
  int64_t total_;
  std::atomic<int64_t> cursor_{0};
  std::atomic<int64_t> drained_polls_{0};
};

}  // namespace mdjoin

#endif  // MDJOIN_COMMON_MORSEL_SCHEDULER_H_
