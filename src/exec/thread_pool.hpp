// FIFO thread pool for the parallel execution layer.
//
// One queue of tasks under one mutex: Submit appends a task and wakes one
// worker, and workers take tasks oldest first, one at a time. No thread
// runs a task inside another. Parallel regions (parallel.hpp) stay
// deadlock-free on this pool because a region's caller runs its own chunks
// and waits only for chunks that other threads are already running.
//
// The pool carries NO determinism obligations itself — determinism is the
// contract of the exec::ParallelFor / exec::ParallelReduce wrappers (fixed
// chunking, index-ordered reduction) plus counter-based RNG streams (see
// stream_rng.hpp). Which thread runs which chunk is intentionally arbitrary.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace splitlock::exec {

class ThreadPool {
 public:
  // `threads` worker threads; 0 picks DefaultThreadCount().
  explicit ThreadPool(size_t threads = 0);
  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Safe from any thread, including pool workers.
  void Submit(std::function<void()> task);

  // The process-wide pool used by ParallelFor/ParallelReduce and every
  // parallel algorithm in the library. Created on first use.
  static ThreadPool& Default();

  // Worker count for Default(): env SPLITLOCK_THREADS when set, otherwise
  // std::thread::hardware_concurrency().
  static size_t DefaultThreadCount();

  // Replaces the default pool with one of `threads` workers (0 restores
  // DefaultThreadCount()). Intended for tests and benchmarks exercising the
  // determinism contract at several widths. Must not be called while a
  // parallel region is running.
  static void SetDefaultThreadCount(size_t threads);

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
};

}  // namespace splitlock::exec
