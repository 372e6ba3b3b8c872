#ifndef FAB_UTIL_THREAD_POOL_H_
#define FAB_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fab::util {

/// Unified `num_threads` convention, shared by ml::ForestParams,
/// serve::BatchServerOptions, core::ExperimentConfig and the pool itself:
/// a positive request is honoured exactly; 0 and negative values mean
/// "hardware concurrency" (with a fallback of 4 when the runtime cannot
/// report it). Always returns >= 1.
int ResolveThreads(int requested);

/// Fixed-size worker pool: one shared FIFO task queue drained by
/// `num_threads` workers, plus a work-sharing `ParallelFor` in which the
/// caller and up to width-1 helper tasks claim loop indices from one
/// shared atomic counter. Results land in caller-visible, index-owned
/// slots, so the *schedule* may vary with thread count while every output
/// stays bitwise identical.
///
/// Determinism contract: ParallelFor promises only that `fn(i)` runs
/// exactly once for every index. Callers make parallel code thread-count invariant by
/// (a) deriving any RNG stream from `(seed, i)`, never from a shared
/// sequential generator, and (b) writing results into slot `i` and
/// reducing sequentially in index order afterwards.
///
/// Nesting: a ParallelFor issued from inside a pool task fans out like
/// any other — it enqueues helpers and claims indices itself. It cannot
/// deadlock: the caller never waits for a queued helper, only for indices
/// a running helper has already claimed, and each such helper is making
/// progress under the same rule one level down.
///
/// Lock discipline is compiler-checked: queue_ and stopping_ carry
/// FAB_GUARDED_BY(mu_) and a Clang `-DFAB_THREAD_SAFETY=ON` build
/// rejects any access outside the lock.
class ThreadPool {
 public:
  /// Spawns ResolveThreads(num_threads) workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`; the future carries its result or exception. Do not
  /// block on the future from inside a pool worker — use ParallelFor for
  /// nested parallelism instead.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    Enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// Runs `fn(i)` exactly once for every i in [begin, end) on the calling
  /// thread plus up to width-1 helper tasks (width = `max_parallel`
  /// capped at num_threads(); 0 = num_threads()), which all claim indices
  /// from one shared counter. Returns once every index has been claimed
  /// and every claimed index has finished; helpers still queued then find
  /// the range used up and return without touching `fn`. If some `fn(i)`
  /// throws, every other index still runs, and the exception of the lowest
  /// throwing index is rethrown — the same one a serial loop would throw.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   int max_parallel = 0) FAB_EXCLUDES(mu_);

 private:
  void Enqueue(std::function<void()> task) FAB_EXCLUDES(mu_);
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ FAB_GUARDED_BY(mu_);
  bool stopping_ FAB_GUARDED_BY(mu_) = false;
  /// Written only by the constructor and joined/cleared only by the
  /// destructor; every other access is the const size() in num_threads().
  std::vector<std::thread> workers_;
};

/// The process-wide pool every analysis stage (FRA fits, PFI, SHAP, CV
/// folds, scenario fan-out, forest training) shares. Sized on first use
/// from the FAB_THREADS environment knob via ResolveThreads; resize with
/// SetSharedPoolThreads.
///
/// Returns a shared_ptr copied out under the singleton lock — never a
/// reference into guarded state — so a concurrent SetSharedPoolThreads
/// swap cannot destroy a pool a caller is still using (the old pool
/// drains and joins when its last holder lets go).
std::shared_ptr<ThreadPool> SharedPool();

/// Re-creates the shared pool with ResolveThreads(num_threads) workers.
/// Safe to call while shared-pool work is in flight: in-flight
/// ParallelFor/Submit callers hold their own reference and finish on the
/// pool they started with; only new SharedPool() calls see the new pool.
void SetSharedPoolThreads(int num_threads);

/// Pool-level convenience wrapper: ThreadPool::ParallelFor on the pool
/// the caller runs in — the worker's own pool when called from a pool
/// task, SharedPool() otherwise. `max_parallel` caps concurrency (0 =
/// pool width, 1 = serial on the caller). A nested call reaches its pool
/// through a raw pointer, never a SharedPool() reference, so a worker can
/// never end up holding the last reference to its own pool and joining
/// itself.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, int max_parallel = 0);

}  // namespace fab::util

#endif  // FAB_UTIL_THREAD_POOL_H_
