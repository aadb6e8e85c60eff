// Fixed-size worker pool behind one entry point, parallel_for.
//
// parallel_for publishes (fn, count) and the workers claim indices from
// one counter, in ascending order: the lowest unclaimed index is always
// the next to start, whichever worker frees up first. Callers that
// enumerate their work in a useful order (the ensemble's task order)
// get exactly that start order at any worker count.
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
  /// Spawns `workers` threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned workers = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Runs fn(0) … fn(count−1) across the pool, starting them in
  /// ascending index order, and blocks until all are done. If any
  /// invocations throw, rethrows the one with the lowest index (a
  /// deterministic choice regardless of scheduling). Concurrent callers
  /// take turns. Must not be called from inside a pool task.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

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
