// Helpers shared by the perfbench workloads: sample summaries, the span
// recorder, digests, the open-loop request schedule, and the result line.
//
// Nothing here reaches into the program under test; the workloads call
// the program's public API and time those calls with these helpers.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point from);
/// CPU time consumed by the whole process so far, in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process, in MB.
double PeakRssMb();

// --- Sample summaries -------------------------------------------------

/// Nearest-rank percentile of ascending `sorted`, q in [0, 1]: the
/// sample at rank ceil(q * n), clamped to [1, n]. NaN when empty.
double Percentile(const std::vector<double>& sorted, double q);

/// A timing distribution reported with its sample count. `top_q` is the
/// highest percentile with at least 10 samples beyond it (rank n - 10),
/// and `top` its value; both are NaN when there are 10 samples or fewer.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;
  double top = 0.0;
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

// Figures robust to a burst of interference on a shared host: [0,
// elapsed_s) is split into whole windows of `window_s`, a sample at time t
// (seconds from the start) falls in window floor(t / window_s), samples
// past the last whole window are dropped, and the median over windows is
// reported.

/// Median over windows of the events per second. With less than one
/// whole window, events / elapsed_s.
double MedianWindowRate(const std::vector<double>& event_s, double elapsed_s,
                        double window_s);
/// Median over windows (that hold samples) of the median `value` in the
/// window; `time_s` and `value` are parallel. With less than one whole
/// window, the median of all values.
double MedianWindowMedian(const std::vector<double>& time_s,
                          const std::vector<double>& value, double elapsed_s,
                          double window_s);

// --- Spans --------------------------------------------------------------

/// One timed call. Times are seconds since the recorder was created;
/// `cpu_s` is the process CPU time spent between begin and end (all
/// threads), so cpu_s / duration is the number of cores kept busy.
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// Per-span self time: the span's duration minus the part of its
/// interval that its direct children cover. Overlapping children (work
/// that ran in parallel under one parent) are merged before subtracting,
/// so the result is never negative. Parallel to `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// In-memory span recorder for one run. A disabled recorder records
/// nothing and costs one branch per call. Thread-safe.
class Recorder {
 public:
  Recorder(bool enabled, uint64_t run_id);

  /// Opens a span under `parent` (-1 = root); returns its id, or -1 when
  /// disabled.
  int Begin(std::string name, int parent = -1);
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Recorder& recorder, std::string name, int parent = -1)
        : recorder_(recorder), id_(recorder.Begin(std::move(name), parent)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Recorder& recorder_;
    const int id_;
  };

  std::vector<Span> spans() const;
  /// Sum of durations / CPU time of the closed spans called `name`.
  double TotalSeconds(const std::string& name) const;
  double TotalCpuSeconds(const std::string& name) const;

  /// Writes every span as Chrome-trace JSON (complete "X" events, with
  /// the run id, span id and parent id in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const uint64_t run_id_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// --- Digests ------------------------------------------------------------

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes);
std::string Hex64(uint64_t v);
/// Exact, locale-independent text for a double ("%a").
std::string HexFloat(double v);

/// Pinned digests: lines "<seed> <key> <hex>", '#' starts a comment.
/// Returns false when the file cannot be read.
bool LoadGolden(const std::string& path,
                std::map<std::pair<uint64_t, std::string>, std::string>* out);

// --- Open-loop schedule ---------------------------------------------------

/// Outcome of one open-loop schedule, indexed by request. Latency is
/// measured from each request's due time, so a stall also charges the
/// requests that came due behind it; `late_ms` is how late the sender
/// started each request. A failed request records +inf latency, so it
/// misses every limit.
struct OpenLoopStats {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  size_t failed = 0;
  double elapsed_s = 0.0;
};

/// Sends `total` requests; request i is due at start + i / rate and is
/// sent when a sender reaches it, late or not. `threads` senders take
/// requests in order; `send(i, sender)` performs request i on sender
/// `sender` and returns whether it succeeded.
OpenLoopStats RunOpenLoop(size_t total, double rate, int threads,
                          const std::function<bool(size_t, int)>& send);

// --- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the metrics, plus every operation it
/// attempted and every one that failed (with a reason printed to stderr).
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit);
  /// Counts one attempted operation; a failure is reported on stderr.
  void Check(bool ok, const std::string& what);
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}}.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
