#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  if (s.count > 10) {
    const size_t rank = s.count - 10;
    s.top_q = static_cast<double>(rank) / static_cast<double>(s.count);
    s.top = samples[rank - 1];
  } else {
    s.top_q = s.top = std::numeric_limits<double>::quiet_NaN();
  }
  return s;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 0.5);
}

namespace {

/// `value`s grouped by the whole window their `time_s` falls in; empty
/// when [0, elapsed_s) holds no whole window.
std::vector<std::vector<double>> ByWindow(const std::vector<double>& time_s,
                                          const std::vector<double>& value,
                                          double elapsed_s, double window_s) {
  std::vector<std::vector<double>> windows(static_cast<size_t>(elapsed_s / window_s));
  for (size_t i = 0; i < time_s.size(); ++i) {
    if (time_s[i] < 0.0) continue;
    const size_t w = static_cast<size_t>(time_s[i] / window_s);
    if (w < windows.size()) windows[w].push_back(value[i]);
  }
  return windows;
}

}  // namespace

double MedianWindowRate(const std::vector<double>& event_s, double elapsed_s,
                        double window_s) {
  const auto windows = ByWindow(event_s, event_s, elapsed_s, window_s);
  if (windows.empty()) return static_cast<double>(event_s.size()) / elapsed_s;
  std::vector<double> counts;
  for (const std::vector<double>& events : windows) {
    counts.push_back(static_cast<double>(events.size()));
  }
  return Median(std::move(counts)) / window_s;
}

double MedianWindowMedian(const std::vector<double>& time_s,
                          const std::vector<double>& value, double elapsed_s,
                          double window_s) {
  auto windows = ByWindow(time_s, value, elapsed_s, window_s);
  if (windows.empty()) return Median(value);
  std::vector<double> medians;
  for (std::vector<double>& samples : windows) {
    if (!samples.empty()) medians.push_back(Median(std::move(samples)));
  }
  return Median(std::move(medians));
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::map<int, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index.find(span.parent);
    if (parent == index.end()) continue;
    const Span& p = spans[parent->second];
    const double lo = std::max(span.start_s, p.start_s);
    const double hi = std::min(span.end_s, p.end_s);
    if (hi > lo) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

Recorder::Recorder(bool enabled, uint64_t run_id)
    : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {}

int Recorder::Begin(std::string name, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.cpu_s = ProcessCpuSeconds();
  span.start_s = SecondsSince(origin_);
  span.end_s = -1.0;  // open
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Recorder::End(int id) {
  if (id < 0) return;
  const double end = SecondsSince(origin_);
  const double cpu = ProcessCpuSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = end;
  span.cpu_s = cpu - span.cpu_s;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  for (const Span& span : spans_) {
    if (span.end_s >= 0.0) closed.push_back(span);
  }
  return closed;
}

double Recorder::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans()) {
    if (span.name == name) total += span.duration();
  }
  return total;
}

double Recorder::TotalCpuSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans()) {
    if (span.name == name) total += span.cpu_s;
  }
  return total;
}

bool Recorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::string run = Hex64(run_id_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans()) {
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":\"%s\","
                  "\"id\":%d,\"parent\":%d,\"cpu_s\":%.6f}}",
                  first ? "" : ",", span.name.c_str(), span.start_s * 1e6,
                  span.duration() * 1e6, run.c_str(), span.id, span.parent,
                  span.cpu_s);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool LoadGolden(const std::string& path,
                std::map<std::pair<uint64_t, std::string>, std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t seed = 0;
    std::string key;
    std::string hex;
    if (fields >> seed >> key >> hex) (*out)[{seed, key}] = hex;
  }
  return true;
}

OpenLoopStats RunOpenLoop(size_t total, double rate, int threads,
                          const std::function<bool(size_t, int)>& send) {
  OpenLoopStats stats;
  stats.latency_ms.resize(total);
  stats.late_ms.resize(total);
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> senders;
  senders.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    // Each request's slots are written only by the sender that took it.
    senders.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        stats.late_ms[i] = 1e3 * SecondsSince(due);
        const bool ok = send(i, t);
        stats.latency_ms[i] =
            ok ? 1e3 * SecondsSince(due) : std::numeric_limits<double>::infinity();
        if (!ok) failed.fetch_add(1);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  stats.elapsed_s = SecondsSince(start);
  stats.failed = failed.load();
  return stats;
}

void RunResult::Add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) Check(false, "metric " + name + " is not finite");
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\":";
  out += result.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // A non-finite value already failed the run (see Add); JSON has no NaN.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" + value +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
