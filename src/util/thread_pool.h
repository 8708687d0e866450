#ifndef ODBGC_UTIL_THREAD_POOL_H_
#define ODBGC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace odbgc {

// Resolves a thread-count knob: values >= 1 pass through; anything else
// means "one thread per hardware core" (hardware_concurrency, floored
// at 1 when unknown).
int ResolveThreadCount(int threads);

// Fixed-size worker pool over a FIFO task queue. Shared by the sweep
// engine (sim/parallel.h) and the sharded fleet engine
// (sim/multi_tenant.h).
class ThreadPool {
 public:
  // threads <= 0 selects ResolveThreadCount's hardware default.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task; workers claim tasks in submission order. Tasks
  // must not throw (use ParallelFor for work that may).
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void Wait();

  // Runs fn(0) .. fn(n-1) across the pool and blocks until all have
  // finished. Indices are claimed in order, so with 1 thread this is
  // exactly the serial loop. If invocations throw, the exception from
  // the lowest index is rethrown after the whole batch has drained.
  //
  // A non-null `overlap` runs on the calling thread while the batch
  // does. The batch drains before ParallelFor returns or throws, even
  // when `overlap` throws; an exception from fn still wins, and one from
  // `overlap` is rethrown only when every fn(i) succeeded.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::function<void()>& overlap = nullptr);

  // Index of the pool worker running the current thread (0-based), or -1
  // when called from a thread that is not a pool worker (e.g. the
  // submitter, which runs ParallelFor's `overlap`).
  static int current_worker_index();

 private:
  void WorkerLoop(int worker_index);

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::vector<std::function<void()>> queue_;  // FIFO via head cursor
  size_t queue_head_ = 0;
  size_t unfinished_ = 0;  // queued + running
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_THREAD_POOL_H_
