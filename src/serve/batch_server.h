#ifndef FAB_SERVE_BATCH_SERVER_H_
#define FAB_SERVE_BATCH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/servable.h"
#include "util/mutex.h"
#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fab::serve {

struct BatchServerOptions {
  /// Worker threads draining the request queue, under the
  /// util::ResolveThreads convention (0 = hardware concurrency).
  int num_threads = 0;
  /// Upper bound on rows coalesced into one inference batch. A block is
  /// never split: one larger than this runs as a batch of its own.
  size_t max_batch = 64;
  /// How long a worker holding fewer than max_batch queued rows waits for
  /// more before running what it has (0 = run immediately).
  int coalesce_wait_us = 200;
  /// Upper bound on queued-but-not-yet-batched rows (0 = unbounded). A
  /// block that would cross it is refused whole with kUnavailable
  /// instead of letting the queue — and with it the queue-wait latency —
  /// grow without limit. This is the hard backstop the fab::net
  /// admission layer builds its softer SLO-based shedding on.
  size_t max_queue = 0;
  /// Shutdown drains already-accepted requests for at most this long;
  /// whatever is still queued at the deadline is completed with a
  /// kUnavailable error rather than dropped or waited on forever.
  /// Negative = drain fully, however long it takes.
  int shutdown_drain_ms = 5000;
};

/// Point-in-time serving counters.
///
/// Percentile fields are read out of fixed-footprint log-scale
/// obs::Histograms (not raw samples), so memory stays bounded no matter
/// how long the server runs. Approximation contract: each percentile is
/// the geometric midpoint of a bucket whose edges grow by 2^(1/8),
/// clamped to the exact observed min/max — within a relative error of
/// 2^(1/16) - 1 ≈ 4.4% (< 5%) of the exact sorted-sample percentile.
/// Counts, means, max and rows_per_sec are exact.
///
/// The three requests_* counters count rows, not blocks: a one-row
/// submit and a row of a 64-row block weigh the same. The latency and
/// queue-wait percentiles are per block.
struct BatchServerStats {
  /// Rows forecast.
  uint64_t requests_completed = 0;
  /// Rows of blocks refused at the door because they would cross
  /// max_queue.
  uint64_t requests_rejected = 0;
  /// Rows of accepted blocks completed with an error at the
  /// shutdown-drain deadline (never silently dropped: each block's
  /// callback fires).
  uint64_t requests_abandoned = 0;
  uint64_t batches_run = 0;
  /// requests_completed / batches_run: rows per executed batch.
  double mean_batch_size = 0.0;
  /// Batch-size distribution (rows per executed batch).
  double p99_batch_size = 0.0;
  /// End-to-end (enqueue → completion) latency percentiles per block, µs.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Enqueue → batch-assembly wait percentiles per block, µs (time spent
  /// queued before a worker picked the block into a batch).
  double p50_queue_wait_us = 0.0;
  double p99_queue_wait_us = 0.0;
  /// Completed rows divided by the first-submit → last-completion span.
  double rows_per_sec = 0.0;
};

/// A thread-pool-backed forecast server whose unit of work is a block of
/// feature rows. Workers coalesce queued blocks into batches and run them
/// through a Servable's batched kernel — the pattern that turns N
/// queue-depth lookups into one cache-friendly flat-forest sweep.
///
/// One submit path: Submit(model, block, rows, done) validates every row
/// of the block, counts its rows against max_queue, queues it whole and
/// later calls `done` once with the block's forecasts in row order (or
/// the error that ended it asynchronously, e.g. the shutdown-drain
/// deadline). A block is never split across batches. Submit(features),
/// SubmitTo and Forecast are thin adapters that submit one-row blocks
/// and hand back a future:
///   * default-model: Submit(features) runs against the model installed
///     at construction / by UpdateModel — the original single-model mode;
///   * keyed: SubmitTo and the block Submit carry an explicit Servable, so
///     one BatchServer can serve every scenario key of a fab::net shard.
///     Workers extract maximal same-model runs from the queue, so rows
///     for the same model still coalesce into one kernel sweep while
///     rows for different models never mix in a batch.
///
/// Thread-safe: any number of client threads may Submit concurrently;
/// UpdateModel hot-swaps the served model without draining the queue
/// (in-flight batches finish on the model they started with).
///
/// Three capabilities, each compiler-checked via FAB_GUARDED_BY under
/// `-DFAB_THREAD_SAFETY=ON`:
///   * mu_            — request queue, served model, stop flag (the
///                      condition-variable predicates read only this
///                      guarded state, in explicit wait loops);
///   * stats_mu_      — serving counters and latency samples;
///   * lifecycle_mu_  — the worker threads themselves. Held across the
///                      join in Shutdown, so Start/Shutdown/Start races
///                      serialize instead of double-joining. Fixed order
///                      when nested: lifecycle_mu_ before mu_ (fablint's
///                      cross-TU lock-order rule watches the inverse).
class BatchServer {
 public:
  /// Invoked exactly once per accepted block with its forecasts, one per
  /// row in row order, or the terminal error. Runs on a worker thread (or
  /// on the thread driving Shutdown, for deadline-abandoned blocks): keep
  /// it cheap and never call back into this BatchServer from inside it.
  using Callback = std::function<void(Result<std::vector<double>>)>;

  BatchServer(std::shared_ptr<const Servable> model,
              const BatchServerOptions& options);
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues `rows` feature rows, row-major in `block`, against `model`
  /// as one unit: no future, no waiting thread. The admission verdict is
  /// the returned Status, for the whole block — it fails fast, queueing
  /// nothing, on a null model or callback, a block that is not `rows`
  /// rows of the model's width (any equal width when the width is
  /// unknown), a block that would cross max_queue, or after Shutdown.
  /// The forecasts (or async error) arrive through `done`. This is what
  /// lets an HTTP front-end keep thousands of requests in flight without
  /// parking a thread per request.
  [[nodiscard]] Status Submit(std::shared_ptr<const Servable> model,
                              std::vector<double> block, size_t rows,
                              Callback done) FAB_EXCLUDES(mu_);

  /// One-row adapter against the default model; the future resolves to
  /// the forecast or the asynchronous error.
  [[nodiscard]] Result<std::future<Result<double>>> Submit(std::vector<double> features)
      FAB_EXCLUDES(mu_);

  /// One-row adapter against an explicit (non-null) model.
  [[nodiscard]] Result<std::future<Result<double>>> SubmitTo(
      std::shared_ptr<const Servable> model, std::vector<double> features)
      FAB_EXCLUDES(mu_);

  /// Blocking convenience wrapper around the one-row Submit.
  [[nodiscard]] Result<double> Forecast(std::vector<double> features);

  /// Atomically replaces the served model (e.g. after a registry Reload).
  void UpdateModel(std::shared_ptr<const Servable> model) FAB_EXCLUDES(mu_);

  /// (Re)spawns the worker threads after a Shutdown and starts accepting
  /// requests again. Idempotent while running; also run by the
  /// constructor. Serving stats carry over across restarts.
  void Start() FAB_EXCLUDES(lifecycle_mu_, mu_);

  /// Stops accepting requests, drains the queue (bounded by
  /// options.shutdown_drain_ms), joins the workers. Requests still
  /// queued at the drain deadline are completed with kUnavailable — an
  /// accepted request is never silently lost. Idempotent; also run by
  /// the destructor. A stopped server can be revived with Start().
  void Shutdown() FAB_EXCLUDES(lifecycle_mu_, mu_);

  BatchServerStats Stats() const;

  /// Stats() plus the full histograms, rendered as one JSON object —
  /// the machine-readable twin used by telemetry scrapes and the bench
  /// reporter ("statsz" in the /varz-/statsz debug-page tradition).
  std::string StatszJson() const;

  /// Rows accepted but not yet picked into a batch.
  size_t QueueDepth() const FAB_EXCLUDES(mu_);

  /// Predicted queue wait for a block admitted right now, in µs:
  /// queued rows × the EMA per-row service time ÷ worker count. Zero
  /// until the first batch completes. The fab::net admission layer sheds
  /// load when this crosses the queue-wait SLO — before latency
  /// collapses, not after.
  double EstimatedQueueWaitUs() const FAB_EXCLUDES(mu_);

  /// Feature count the served model expects (0 when unknown).
  size_t num_features() const { return num_features_.load(); }

 private:
  /// One queued block.
  struct Request {
    /// rows × width values, row-major.
    std::vector<double> features;
    size_t rows = 0;
    /// Explicit model for keyed submits; null = default model, resolved
    /// when a worker assembles the batch.
    std::shared_ptr<const Servable> model;
    Callback done;
    obs::Clock::time_point enqueued;
    /// Trace context captured at submit time (obs::CurrentTraceId; 0 when
    /// untraced). Batch workers re-install it around completion callbacks
    /// and attribute this block's latency samples to it, so a request's
    /// spans stitch across the submitting thread and the batch thread.
    uint64_t trace_id = 0;
  };

  /// Calls a block's callback under its trace context.
  static void Complete(Request request, Result<std::vector<double>> result);

  /// Shared validation + admission + enqueue path behind every Submit
  /// flavour; a null model means the default model.
  [[nodiscard]] Status Enqueue(std::shared_ptr<const Servable> model,
                               std::vector<double> block, size_t rows,
                               Callback done) FAB_EXCLUDES(mu_);

  /// The one-row adapters' shared body.
  [[nodiscard]] Result<std::future<Result<double>>> SubmitRow(
      std::shared_ptr<const Servable> model, std::vector<double> features)
      FAB_EXCLUDES(mu_);

  void WorkerLoop() FAB_EXCLUDES(mu_);
  void RunBatch(std::vector<Request> batch,
                const std::shared_ptr<const Servable>& model);

  const BatchServerOptions options_;
  /// Atomic: read lock-free on the Submit fast path, written by UpdateModel.
  std::atomic<size_t> num_features_{0};
  /// EMA of per-row batch service time in µs (relaxed CAS updates from
  /// workers; feeds EstimatedQueueWaitUs).
  std::atomic<double> ema_row_service_us_{0.0};

  mutable util::Mutex mu_;
  util::CondVar cv_;
  /// Workers notify when the queue empties; Shutdown's bounded drain
  /// waits on it instead of polling.
  util::CondVar drained_cv_;
  std::deque<Request> queue_ FAB_GUARDED_BY(mu_);
  /// Rows over all blocks in queue_.
  size_t queued_rows_ FAB_GUARDED_BY(mu_) = 0;
  std::shared_ptr<const Servable> model_ FAB_GUARDED_BY(mu_);
  bool stopping_ FAB_GUARDED_BY(mu_) = false;

  mutable util::Mutex stats_mu_;
  uint64_t requests_completed_ FAB_GUARDED_BY(stats_mu_) = 0;
  uint64_t batches_run_ FAB_GUARDED_BY(stats_mu_) = 0;
  bool have_first_submit_ FAB_GUARDED_BY(stats_mu_) = false;
  obs::Clock::time_point first_submit_ FAB_GUARDED_BY(stats_mu_);
  obs::Clock::time_point last_complete_ FAB_GUARDED_BY(stats_mu_);

  // Admission counters are lock-free so the rejection fast path never
  // touches stats_mu_.
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> requests_abandoned_{0};

  // Per-instance histograms (bounded memory, see BatchServerStats).
  // obs instruments are internally lock-free, so they live outside
  // stats_mu_ — recording never contends with Stats() readers.
  obs::Histogram latency_us_hist_;
  obs::Histogram batch_size_hist_;
  obs::Histogram queue_wait_us_hist_;

  util::Mutex lifecycle_mu_ FAB_ACQUIRED_BEFORE(mu_);
  std::vector<std::thread> workers_ FAB_GUARDED_BY(lifecycle_mu_);
};

}  // namespace fab::serve

#endif  // FAB_SERVE_BATCH_SERVER_H_
