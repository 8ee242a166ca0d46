#ifndef MDJOIN_COMMON_THREAD_POOL_H_
#define MDJOIN_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace mdjoin {

/// Fixed-size worker pool. Submit closures; Wait() blocks until the queue
/// drains and all workers are idle. Used by the MD-join driver
/// (core/detail_scan.h) for the intra-operator parallelism of §4.1.2: one
/// scan worker, or one merge of worker partials, per task.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Tasks must not throw (the engine is exception-free);
  /// an exception that escapes anyway — e.g. std::bad_alloc from a container
  /// — is trapped in the worker and aborts the process with a logged message
  /// rather than letting std::terminate fire mid-unwind.
  /// Delegates to SubmitBatch; prefer the batch form when enqueueing a fleet
  /// of tasks at once.
  void Submit(std::function<void()> task) MDJ_EXCLUDES(mu_);

  /// Enqueues every task in `tasks`, taking the queue mutex once for the
  /// whole batch instead of once per task, then wakes all workers. The MD-join
  /// driver submits one task per worker (and per merge pair) this way so
  /// startup is one lock hand-off, not num_threads of them.
  void SubmitBatch(std::vector<std::function<void()>> tasks) MDJ_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() MDJ_EXCLUDES(mu_);

  /// Drops every task still queued without running it; tasks already being
  /// executed finish normally (pair with a QueryGuard cancel to stop those
  /// cooperatively). Wait() then returns once in-flight tasks drain.
  void Cancel() MDJ_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() MDJ_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ MDJ_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  int active_ MDJ_GUARDED_BY(mu_) = 0;
  bool shutdown_ MDJ_GUARDED_BY(mu_) = false;
};

}  // namespace mdjoin

#endif  // MDJOIN_COMMON_THREAD_POOL_H_
