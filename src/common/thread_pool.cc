#include "common/thread_pool.h"

#include <exception>

#include "common/logging.h"

namespace mdjoin {

ThreadPool::ThreadPool(int num_threads) {
  MDJ_CHECK(num_threads > 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  std::vector<std::function<void()>> batch;
  batch.push_back(std::move(task));
  SubmitBatch(std::move(batch));
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const bool single = tasks.size() == 1;
  {
    MutexLock lock(mu_);
    MDJ_CHECK(!shutdown_);
    for (std::function<void()>& task : tasks) {
      queue_.push_back(std::move(task));
    }
  }
  if (single) {
    task_available_.NotifyOne();
  } else {
    task_available_.NotifyAll();
  }
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  // The predicate runs with mu_ held (CondVar::Wait re-acquires before each
  // evaluation), which the static analysis cannot see through the lambda.
  all_done_.Wait(lock, [this]() MDJ_NO_THREAD_SAFETY_ANALYSIS {
    return queue_.empty() && active_ == 0;
  });
}

void ThreadPool::Cancel() {
  {
    MutexLock lock(mu_);
    queue_.clear();
    if (active_ == 0) all_done_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      task_available_.Wait(lock, [this]() MDJ_NO_THREAD_SAFETY_ANALYSIS {
        return shutdown_ || !queue_.empty();
      });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // Trap escaping exceptions while no pool lock is held: unwinding into
    // the scheduler would std::terminate with mu_'s state unknown and no
    // diagnostic. Library code is exception-free, so anything caught here is
    // an environment failure (bad_alloc) or a misbehaving user closure.
    try {
      task();
    } catch (const std::exception& e) {
      MDJ_CHECK(false) << "ThreadPool task terminated with uncaught exception: "
                       << e.what();
    } catch (...) {
      MDJ_CHECK(false) << "ThreadPool task terminated with uncaught non-standard "
                          "exception";
    }
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace mdjoin
