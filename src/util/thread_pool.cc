#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"

namespace fab::util {

namespace {

/// The pool a worker thread belongs to, set for the thread's lifetime
/// (null on every other thread). util::ParallelFor routes nested calls
/// through it; a raw pointer, so a worker never co-owns its own pool.
thread_local ThreadPool* t_worker_pool = nullptr;

#if !defined(FAB_OBS_DISABLED)
// Pool telemetry (shared across pool instances — the interesting signal
// is process-wide pressure on the shared pool). Fetched once; Record /
// Add are lock-free. Compiled out entirely under FAB_OBS=OFF so the
// worker loop carries no clock reads or atomics.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::GetGauge("threadpool/queue_depth");
  return gauge;
}
obs::Histogram& TaskLatencyHistogram() {
  static obs::Histogram& histogram =
      obs::GetHistogram("threadpool/task_us");
  return histogram;
}
obs::Counter& TasksEnqueuedCounter() {
  static obs::Counter& counter = obs::GetCounter("threadpool/tasks_enqueued");
  return counter;
}
#endif

int EnvThreads() {
  const char* v = std::getenv("FAB_THREADS");
  if (v == nullptr || *v == '\0') return 0;
  return static_cast<int>(std::strtol(v, nullptr, 10));
}

}  // namespace

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 4;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveThreads(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      t_worker_pool = this;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  // Trace-context propagation: a task submitted while a request context
  // is installed (HttpServer dispatch, nested Submit chains) carries the
  // request's trace id onto whichever worker runs it, so its spans and
  // histogram exemplars stitch to the request. Free when untraced.
  const uint64_t trace_id = obs::CurrentTraceId();
  if (trace_id != 0) {
    task = [trace_id, inner = std::move(task)] {
      obs::ScopedTraceId scope(trace_id);
      inner();
    };
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
#if !defined(FAB_OBS_DISABLED)
  QueueDepthGauge().Add(1);
  TasksEnqueuedCounter().Increment();
#endif
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
#if !defined(FAB_OBS_DISABLED)
    QueueDepthGauge().Add(-1);
    const obs::Clock::time_point start = obs::Clock::Now();
    {
      FAB_TRACE_SCOPE("threadpool/task");
      task();  // packaged_task-style wrappers capture their own exceptions
    }
    TaskLatencyHistogram().Record(
        obs::Clock::MicrosBetween(start, obs::Clock::Now()));
#else
    task();  // packaged_task-style wrappers capture their own exceptions
#endif
  }
}

namespace {

/// One ParallelFor's shared state. The caller and its helper tasks each
/// hold a reference, so a helper that starts after the caller returned
/// still finds valid state: the counter says the range is used up and it
/// returns without touching `fn`, which may be gone by then.
class LoopState {
 public:
  LoopState(size_t begin, size_t end, const std::function<void(size_t)>& fn)
      : next_(begin), end_(end), total_(end - begin), fn_(&fn) {}

  /// Claims and runs indices until the range is used up, then reports how
  /// many this thread claimed. Run by the caller and by every helper.
  void Work() FAB_EXCLUDES(mu_) {
    size_t claimed = 0;
    for (size_t i = next_.fetch_add(1); i < end_; i = next_.fetch_add(1)) {
      ++claimed;
      try {
        (*fn_)(i);
        // Not swallowed: the lowest-index exception is stored and
        // rethrown by the caller once every claimed index has finished.
      } catch (...) {  // fablint:allow(safety-catch-all)
        RecordError(i, std::current_exception());
      }
    }
    if (claimed == 0) return;
    MutexLock lock(mu_);
    done_ += claimed;
    if (done_ == total_) cv_.NotifyAll();
  }

  /// Blocks until every index has finished, then rethrows the exception
  /// of the lowest throwing index, if any. Called by the caller only,
  /// after its own Work() returned — so every index has been claimed and
  /// the wait covers only indices running on helpers right now.
  void WaitAndRethrow() FAB_EXCLUDES(mu_) {
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      while (done_ != total_) cv_.Wait(mu_);
      // Moved, not copied: a helper may drop the last reference to this
      // state later, and must not release the exception along with it.
      error = std::move(error_);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void RecordError(size_t i, std::exception_ptr error) FAB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (i >= error_index_) return;
    error_index_ = i;
    error_ = std::move(error);
  }

  std::atomic<size_t> next_;  // next unclaimed index
  const size_t end_;
  const size_t total_;
  const std::function<void(size_t)>* const fn_;

  Mutex mu_;
  CondVar cv_;
  size_t done_ FAB_GUARDED_BY(mu_) = 0;  // indices finished
  /// Lowest index that threw so far (max = none) and its exception.
  size_t error_index_ FAB_GUARDED_BY(mu_) =
      std::numeric_limits<size_t>::max();
  std::exception_ptr error_ FAB_GUARDED_BY(mu_);
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             int max_parallel) {
  if (begin >= end) return;
  const int width =
      max_parallel > 0 ? std::min(max_parallel, num_threads()) : num_threads();
  const size_t helpers =
      std::min(static_cast<size_t>(width) - 1, end - begin - 1);
  auto state = std::make_shared<LoopState>(begin, end, fn);
  for (size_t h = 0; h < helpers; ++h) Enqueue([state] { state->Work(); });
  state->Work();
  state->WaitAndRethrow();
}

namespace {

Mutex g_shared_pool_mu;
std::shared_ptr<ThreadPool> g_shared_pool FAB_GUARDED_BY(g_shared_pool_mu);

}  // namespace

std::shared_ptr<ThreadPool> SharedPool() {
  MutexLock lock(g_shared_pool_mu);
  if (g_shared_pool == nullptr) {
    g_shared_pool = std::make_shared<ThreadPool>(EnvThreads());
  }
  return g_shared_pool;  // a copy taken under the lock, not a reference
}

void SetSharedPoolThreads(int num_threads) {
  const int n = ResolveThreads(num_threads);
  std::shared_ptr<ThreadPool> retired;
  {
    MutexLock lock(g_shared_pool_mu);
    if (g_shared_pool != nullptr && g_shared_pool->num_threads() == n) return;
    // Swap under the lock, destroy outside it: if this is the last
    // reference, ~ThreadPool joins the old workers, and a join must not
    // happen while holding the singleton lock (a draining task calling
    // util::ParallelFor would need it and deadlock).
    retired = std::move(g_shared_pool);
    g_shared_pool = std::make_shared<ThreadPool>(n);
  }
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, int max_parallel) {
  if (t_worker_pool != nullptr) {
    // Nested call: fan out on the worker's own pool, which outlives every
    // task it runs. Taking a SharedPool() reference here could leave this
    // worker holding the last one after a resize, and join itself.
    t_worker_pool->ParallelFor(begin, end, fn, max_parallel);
    return;
  }
  SharedPool()->ParallelFor(begin, end, fn, max_parallel);
}

}  // namespace fab::util
