#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fab::util {
namespace {

TEST(ResolveThreadsTest, PositivePassesThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(2), 2);
  EXPECT_EQ(ResolveThreads(64), 64);
}

TEST(ResolveThreadsTest, ZeroAndNegativeMeanHardwareConcurrency) {
  const int resolved_zero = ResolveThreads(0);
  EXPECT_GE(resolved_zero, 1);
  // Negative requests follow the same "auto" semantics as zero.
  EXPECT_EQ(ResolveThreads(-1), resolved_zero);
  EXPECT_EQ(ResolveThreads(-100), resolved_zero);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) {
    EXPECT_EQ(resolved_zero, hw);
  }
}

TEST(ThreadPoolTest, ConstructsAndShutsDownCleanly) {
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
  // Destruction with queued work drains before joining.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](size_t i) {
                         ran.fetch_add(1);
                         if (i == 3) throw std::invalid_argument("boom");
                       }),
      std::invalid_argument);
  // A throw stops no other index: all of them run before the exception
  // is rethrown.
  EXPECT_EQ(ran.load(), 100);
  // The pool survives a throwing ParallelFor.
  std::vector<int> out(10, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = 1; });
  for (int v : out) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  // Several indices throw; whichever thread gets there first, the
  // exception of the lowest index wins — the one a serial loop throws.
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    for (int round = 0; round < 20; ++round) {
      try {
        pool.ParallelFor(0, 200, [](size_t i) {
          if (i % 40 == 13) throw std::runtime_error(std::to_string(i));
        });
        ADD_FAILURE() << "no exception at threads=" << n;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "13") << "threads=" << n;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    std::vector<int> hits(1000, 0);
    pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ParallelForResultsOrderedByIndex) {
  // Index-owned slots assemble in range order regardless of which worker
  // ran which chunk — the determinism contract every caller relies on.
  ThreadPool pool(8);
  std::vector<size_t> out(512, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = i * 3 + 1; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(ThreadPoolTest, ParallelForHonorsMaxParallelAndEmptyRange) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // max_parallel = 1 runs serially inline on the caller.
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(
      0, 10,
      [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*max_parallel=*/1);
}

TEST(ThreadPoolTest, NestedParallelForOnWorkerUsesMoreThanOneThread) {
  ThreadPool pool(4);
  // A ParallelFor issued from a pool task fans out like a top-level one.
  // The caller holds on to its first index until another thread has run
  // one, so the test does not depend on how fast helpers wake.
  auto outer = pool.Submit([&pool] {
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> helped{false};
    pool.ParallelFor(0, 2, [&](size_t) {
      if (std::this_thread::get_id() != caller) {
        helped.store(true);
        return;
      }
      for (int ms = 0; !helped.load() && ms < 10000; ++ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    return helped.load();
  });
  EXPECT_TRUE(outer.get());
}

TEST(ThreadPoolTest, ThreeLevelNestingCoversEveryIndexOnce) {
  // Nested calls fan out at every level and cannot deadlock, even on a
  // one-worker pool. Plain ints: each slot has one writer, and the pool
  // must publish it to the caller (TSan checks the happens-before).
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    constexpr size_t kFan = 6;
    std::vector<int> hits(kFan * kFan * kFan, 0);
    pool.ParallelFor(0, kFan, [&](size_t i) {
      pool.ParallelFor(0, kFan, [&](size_t j) {
        pool.ParallelFor(0, kFan,
                         [&](size_t k) { ++hits[(i * kFan + j) * kFan + k]; });
      });
    });
    for (int h : hits) EXPECT_EQ(h, 1) << "threads=" << n;
  }
}

TEST(ThreadPoolTest, ParallelForReturnsWhileHelpersStillQueued) {
  std::atomic<int> calls{0};
  {
    ThreadPool pool(2);
    // Park both workers so the helpers of the next ParallelFor stay queued.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> parked{0};
    std::vector<std::future<void>> blockers;
    for (int w = 0; w < 2; ++w) {
      blockers.push_back(pool.Submit([&parked, gate] {
        parked.fetch_add(1);
        gate.wait();
      }));
    }
    while (parked.load() < 2) std::this_thread::yield();
    {
      std::vector<int> out(100, 0);
      // The caller claims every index itself and returns; `out` and the
      // lambda die while the helper is still in the queue.
      pool.ParallelFor(0, out.size(), [&](size_t i) {
        out[i] = 1;
        calls.fetch_add(1);
      });
      for (int v : out) EXPECT_EQ(v, 1);
    }
    release.set_value();
    for (auto& blocker : blockers) blocker.get();
    // ~ThreadPool drains the queue: the late helper finds the range used
    // up and must not call the dead lambda.
  }
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, StressTenThousandTinyTasks) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  std::vector<std::future<void>> futures;
  futures.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    futures.push_back(pool.Submit([&total, i] { total.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 10000L * 9999L / 2);
}

TEST(SharedPoolTest, ResizeTakesEffect) {
  SetSharedPoolThreads(3);
  EXPECT_EQ(SharedPool()->num_threads(), 3);
  SetSharedPoolThreads(1);
  EXPECT_EQ(SharedPool()->num_threads(), 1);
  SetSharedPoolThreads(0);
  EXPECT_EQ(SharedPool()->num_threads(), ResolveThreads(0));
}

TEST(SharedPoolTest, HandleOutlivesResize) {
  // Regression for the guarded-state escape fixed in this layer:
  // SharedPool() used to return a ThreadPool& into the guarded singleton
  // slot, so a concurrent SetSharedPoolThreads destroyed the pool out
  // from under the reference. Now callers get a shared_ptr copied under
  // the lock; the retired pool stays alive until its last holder lets go.
  SetSharedPoolThreads(2);
  std::shared_ptr<ThreadPool> held = SharedPool();
  SetSharedPoolThreads(3);  // swaps the singleton; `held` keeps the old pool
  EXPECT_EQ(held->num_threads(), 2);
  EXPECT_EQ(SharedPool()->num_threads(), 3);
  // The retired pool still executes work correctly.
  std::vector<int> out(64, 0);
  held->ParallelFor(0, out.size(), [&](size_t i) { out[i] = 1; });
  for (int v : out) EXPECT_EQ(v, 1);
  SetSharedPoolThreads(0);
}

TEST(SharedPoolTest, ResizeRacesWithInFlightParallelFor) {
  // TSan-exercised (thread_pool_test_tsan builds this file with
  // -fsanitize=thread): resizing the shared pool while another thread is
  // mid-ParallelFor must be free of data races, lost indices, and
  // self-join deadlocks.
  SetSharedPoolThreads(2);
  std::atomic<bool> stop{false};
  std::atomic<long> covered{0};
  std::thread worker([&] {
    while (!stop.load()) {
      std::vector<int> hits(256, 0);
      ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
      long sum = 0;
      for (int h : hits) sum += h;
      ASSERT_EQ(sum, 256);  // every index exactly once, every iteration
      covered.fetch_add(sum);
    }
  });
  for (int round = 0; round < 20; ++round) {
    SetSharedPoolThreads(1 + round % 3);
  }
  stop.store(true);
  worker.join();
  EXPECT_GT(covered.load(), 0);
  SetSharedPoolThreads(0);
}

}  // namespace
}  // namespace fab::util
