#include "src/engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sops::engine {
namespace {

TEST(ThreadPool, IdlePoolConstructsAndJoins) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// One worker claims every index itself, so the hand-out order is the
// run order: ascending, each index once.
TEST(ThreadPool, SingleWorkerRunsEverything) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(100, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> ascending(100);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(order, ascending);
}

TEST(ThreadPool, ManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 1000;
  std::vector<int> hits(kTasks, 0);
  pool.parallel_for(kTasks, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kTasks));  // each exactly once
}

TEST(ThreadPool, ParallelForZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, BlockedIndexDoesNotStrandTheRest) {
  ThreadPool pool(2);
  constexpr std::size_t kQuick = 20;
  std::atomic<std::size_t> quick_done{0};
  std::atomic<bool> released_in_time{false};
  // Index 0 occupies one worker until every other index has run, so
  // they can only all finish if the other worker claims them — if it
  // cannot, the deadline trips and released_in_time stays false.
  pool.parallel_for(kQuick + 1, [&](std::size_t i) {
    if (i != 0) {
      ++quick_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (quick_done.load() < kQuick &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    released_in_time.store(quick_done.load() == kQuick);
  });
  EXPECT_TRUE(released_in_time.load());
  EXPECT_EQ(quick_done.load(), kQuick);
}

TEST(ThreadPool, UsableAfterAThrowingParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4,
                   [](std::size_t i) {
                     if (i == 1) throw std::runtime_error("task failed");
                   }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexError) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    try {
      pool.parallel_for(32, [](std::size_t i) {
        if (i == 7) throw std::out_of_range("seven");
        if (i == 23) throw std::runtime_error("twenty-three");
      });
      FAIL() << "expected an exception";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "seven");  // index 7 < 23, deterministically
    }
  }
}

// Two callers share one pool: their batches take turns, and each
// caller gets back exactly its own indices.
TEST(ThreadPool, ConcurrentCallersTakeTurns) {
  ThreadPool pool(3);
  constexpr std::size_t kTasks = 500;
  std::vector<int> a(kTasks, 0), b(kTasks, 0);
  std::thread other([&] {
    pool.parallel_for(kTasks, [&b](std::size_t i) { b[i] += 2; });
  });
  pool.parallel_for(kTasks, [&a](std::size_t i) { a[i] += 1; });
  other.join();
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), static_cast<int>(kTasks));
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0),
            static_cast<int>(2 * kTasks));
}

// A pool of size 1 starts no worker: the caller runs every index,
// in ascending order.
TEST(ThreadPool, SizeOneRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  pool.parallel_for(50, [&](std::size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  std::vector<std::size_t> ascending(50);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(order, ascending);
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(50, caller));
}

// One index needs no worker, so the caller runs it itself.
TEST(ThreadPool, OneIndexBatchRunsOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::thread::id ran_on;
    pool.parallel_for(1, [&ran_on](std::size_t) {
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller) << "round " << round;
  }
}

// ThreadPool(N) runs N tasks at once: N indices that each wait until
// all N have started finish only if the caller and every one of the
// N − 1 workers run one. A caller that woke too few workers trips the
// deadline. The pause lets the new workers fall asleep first, so none
// can claim an index on its way in without being woken.
TEST(ThreadPool, RunsSizeTasksAtOnce) {
  for (unsigned n = 2; n <= 4; ++n) {
    ThreadPool pool(n);
    ASSERT_EQ(pool.size(), n);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::atomic<unsigned> started{0};
    std::atomic<unsigned> saw_all{0};
    pool.parallel_for(n, [&](std::size_t) {
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (started.load() < n &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load() == n) ++saw_all;
    });
    EXPECT_EQ(saw_all.load(), n) << "pool of " << n;
  }
}

}  // namespace
}  // namespace sops::engine
