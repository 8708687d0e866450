#include "util/thread_pool.h"

#include <exception>
#include <utility>

#include "util/check.h"

namespace odbgc {

namespace {
// -1 on every thread that is not a pool worker.
thread_local int tls_worker_index = -1;
}  // namespace

int ThreadPool::current_worker_index() { return tls_worker_index; }

int ResolveThreadCount(int threads) {
  if (threads >= 1) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  int n = ResolveThreadCount(threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  ODBGC_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ODBGC_CHECK_MSG(!stop_, "Submit on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(
          lock, [this] { return stop_ || queue_head_ < queue_.size(); });
      if (queue_head_ >= queue_.size()) return;  // stop_ and drained
      task = std::move(queue_[queue_head_]);
      ++queue_head_;
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --unfinished_;
      if (unfinished_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const std::function<void()>& overlap) {
  // One exception slot per index: written by at most one task, read only
  // after Wait(), so no synchronization beyond the pool's is needed.
  std::vector<std::exception_ptr> errors(n);
  for (size_t i = 0; i < n; ++i) {
    Submit([&fn, &errors, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  // The tasks reference this frame, so nothing may unwind it before
  // Wait() returns.
  std::exception_ptr overlap_error;
  if (overlap) {
    try {
      overlap();
    } catch (...) {
      overlap_error = std::current_exception();
    }
  }
  Wait();
  for (size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (overlap_error) std::rethrow_exception(overlap_error);
}

}  // namespace odbgc
