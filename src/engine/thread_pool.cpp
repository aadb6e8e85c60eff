#include "src/engine/thread_pool.hpp"

#include <algorithm>

namespace sops::engine {

ThreadPool::ThreadPool(unsigned tasks) {
  if (tasks == 0) tasks = std::max(1u, std::thread::hardware_concurrency());
  // parallel_for's caller runs tasks too, so one thread fewer suffices.
  threads_.reserve(tasks - 1);
  for (unsigned i = 1; i < tasks; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_claimed(std::unique_lock<std::mutex>& lock) {
  while (next_ < count_) {
    const std::size_t i = next_++;
    const std::function<void(std::size_t)>& fn = *fn_;
    ++running_;
    lock.unlock();
    std::exception_ptr err;
    try {
      fn(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err) errors_.emplace_back(i, std::move(err));
    --running_;
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stop_ || next_ < count_; });
    if (next_ == count_) return;  // stop_, and no batch is live
    run_claimed(lock);
    if (running_ == 0) {
      // This was the batch's last task; its caller may be waiting.
      lock.unlock();
      caller_.notify_all();
      lock.lock();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    caller_.wait(lock, [this] { return fn_ == nullptr; });
    fn_ = &fn;
    count_ = count;
    next_ = 0;
    // This thread claims indices too, so count − 1 workers are enough.
    const std::size_t wake = std::min(count - 1, threads_.size());
    if (wake > 0) {
      lock.unlock();
      for (std::size_t k = 0; k < wake; ++k) work_ready_.notify_one();
      lock.lock();
    }
    run_claimed(lock);
    caller_.wait(lock, [this] { return running_ == 0; });
    // Take the pool's exception_ptrs so they are released on this
    // thread, after the rethrow below, never on a worker.
    errors.swap(errors_);
    fn_ = nullptr;
    count_ = next_ = 0;
  }
  caller_.notify_all();  // the pool is free for the next caller
  if (!errors.empty()) {
    // Deterministic propagation: the failure with the lowest index wins,
    // no matter which thread hit it first.
    std::rethrow_exception(
        std::min_element(errors.begin(), errors.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         })
            ->second);
  }
}

}  // namespace sops::engine
