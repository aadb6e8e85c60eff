// Fixed-size task pool behind one entry point, parallel_for.
//
// A pool of size N runs up to N tasks at once: the thread that calls
// parallel_for and N − 1 worker threads. parallel_for publishes
// (fn, count), wakes at most min(count − 1, N − 1) workers, and then
// claims indices itself beside them. Every thread claims from one
// counter, in ascending order: the lowest unclaimed index is always the
// next to start, whichever thread frees up first. Callers that
// enumerate their work in a useful order (the ensemble's task order)
// get exactly that start order at any pool size. A pool of size 1
// starts no thread at all.
//
// Determinism contract: the pool schedules *when* tasks run, never what
// they compute. Ensemble results are reproducible because every task
// carries its own seed (see seed_stream.hpp) and writes only to its own
// output slot — see ensemble.cpp for the pattern.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sops::engine {

class ThreadPool {
 public:
  /// Runs up to `tasks` tasks at once, on the caller and `tasks` − 1
  /// worker threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned tasks = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Tasks at once: the workers plus the caller.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Runs fn(0) … fn(count−1) on the calling thread and the workers,
  /// starting them in ascending index order, and blocks until all are
  /// done. If any invocations throw, rethrows the one with the lowest
  /// index (a deterministic choice regardless of scheduling). Concurrent
  /// callers take turns. Must not be called from inside a pool task.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims the lowest unclaimed index of the live batch and runs it
  /// with the lock released, until every index is claimed. Enters and
  /// leaves with `lock` held.
  void run_claimed(std::unique_lock<std::mutex>& lock);

  // mutex_ guards the fields up to threads_. A batch is live while fn_
  // is set; it is finished once every index is claimed and none is
  // running.
  std::mutex mutex_;
  std::condition_variable work_ready_;  // workers: indices to claim, or stop_
  std::condition_variable caller_;      // callers: batch finished, pool free
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t running_ = 0;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace sops::engine
