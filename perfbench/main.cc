// perfbench: one workload of the repo's benchmark per invocation.
//
//   perfbench --workload <grid_serial|grid_fanout|serve_point|serve_bulk>
//             [--seed 42] [--seconds 10] [--trace 0|1]
//             --golden <digests.txt> --work-dir <dir>
//
// Prints a host fingerprint, a readable metric table, and as its last line
// one JSON object: {"correct","attempted","failed","metrics"}. An untraced
// run reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer ones and writes its spans as Chrome-trace JSON into the work
// dir. Exits 1 if any operation failed or any output was wrong. Normally
// started through run.py, which builds it first.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/json.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},  {"latency_p50_ms", "ms"}, {"rows_per_s", "rows/s"},
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

/// Printed by every traced run, on every workload. A layer the workload
/// does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.market_s", "s"},
    {"sim.simulate_s", "s"},
    {"ta.indicators_s", "s"},
    {"core.scenario_s", "s"},
    {"core.fra_s", "s"},
    {"core.fra_cores", "cores"},
    {"core.final_vector_s", "s"},
    {"core.scored_vector_s", "s"},
    {"core.improvement_s", "s"},
    {"core.improvement_cores", "cores"},
    {"core.export_s", "s"},
    {"core.export_cores", "cores"},
    {"core.precompute_s", "s"},
    {"core.precompute_cores", "cores"},
    {"core.scenario_max_over_mean", "ratio"},
    {"ml.rf_fit_s", "s"},
    {"ml.gbdt_fit_s", "s"},
    {"explain.pfi_s", "s"},
    {"explain.shap_s", "s"},
    {"ml.rf_fits", "count"},
    {"ml.gbdt_fits", "count"},
    {"util.pool_tasks", "count"},
    {"util.pool_task_p50_us", "us"},
    {"net.healthz_rtt_us", "us"},
    {"net.parse_us", "us"},
    {"net.predict_server_p50_us", "us"},
    {"net.predict_server_p99_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_size_mean", "rows"},
    {"serve.batches_run", "count"},
    {"serve.submits_per_request", "ratio"},
    {"serve.kernel_ns_per_row.rf", "ns"},
    {"serve.kernel_ns_per_row.xgb", "ns"},
    {"serve.kernel_ns_per_row.mlp", "ns"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.latency_samples", "count"},
    {"bench.send_late_p99_ms", "ms"},
    {"bench.stage_coverage", "fraction"},
    {"bench.error_rate", "fraction"},
    {"bench.trace_overhead_s", "s"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <grid_serial|grid_fanout|"
               "serve_point|serve_bulk> [--seed N] [--seconds S] [--trace 0|1] "
               "--golden FILE --work-dir DIR\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintFingerprint(const Options& options) {
#if defined(FAB_OBS_DISABLED)
  const bool fab_obs = false;
#else
  const bool fab_obs = true;
#endif
  std::printf(
      "fingerprint {\"nproc\":%u,\"cpu\":%s,\"compiler\":%s,"
      "\"build_type\":\"%s\",\"fab_obs\":%s,\"pool_width\":%d,\"seed\":%llu,"
      "\"workload\":\"%s\",\"seconds\":%g,\"trace\":%d}\n",
      std::thread::hardware_concurrency(), fab::net::EscapeJson(CpuModel()).c_str(),
      fab::net::EscapeJson(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      fab_obs ? "true" : "false",
      fab::util::SharedPool()->num_threads(), static_cast<unsigned long long>(options.seed),
      options.workload.c_str(), options.seconds, options.trace ? 1 : 0);
}

/// What recording and writing the spans cost: the measured cost of one
/// span times the spans recorded, plus writing the trace file.
double TraceOverheadSeconds(const Recorder& recorder, const std::string& path,
                            RunResult& result) {
  constexpr int kCalibrationSpans = 20000;
  Recorder calibration(true, 0);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalibrationSpans; ++i) {
    Recorder::Scope span(calibration, "calibration");
  }
  const double per_span = SecondsSince(t0) / kCalibrationSpans;
  const Clock::time_point t1 = Clock::now();
  result.Check(recorder.WriteChromeTrace(path), "write trace " + path);
  const double write_s = SecondsSince(t1);
  std::printf("trace: %zu spans in %s\n", recorder.spans().size(), path.c_str());
  return per_span * static_cast<double>(recorder.spans().size()) + write_s;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--golden") {
      options.golden = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (options.golden.empty() || options.work_dir.empty()) {
    return Usage("--golden and --work-dir are required");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  PrintFingerprint(options);
  const uint64_t run_id = Fnv1a(
      options.workload + "/" + std::to_string(options.seed) + "/" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch().count()));
  Recorder recorder(options.trace, run_id);
  RunResult result;
  if (options.workload == "grid_serial" || options.workload == "grid_fanout") {
    result = RunGrid(options, recorder, options.workload == "grid_fanout");
  } else if (options.workload == "serve_point" || options.workload == "serve_bulk") {
    result = RunServe(options, recorder, options.workload == "serve_bulk");
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace_" + options.workload + "_seed" +
                             std::to_string(options.seed) + ".json";
    result.Add("bench.trace_overhead_s", TraceOverheadSeconds(recorder, path, result), "s");
  }
  result.Add("bench.error_rate",
             result.attempted == 0
                 ? 1.0
                 : static_cast<double>(result.failed) / static_cast<double>(result.attempted),
             "fraction");

  // Keep exactly the metrics of this mode, in a fixed order.
  RunResult report = result;
  report.metrics.clear();
  auto find = [&](const char* name) -> const Metric* {
    for (const Metric& m : result.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find(spec.name);
      report.metrics.push_back({spec.name, m != nullptr ? m->value : 0.0, spec.unit});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(spec.name);
      if (m == nullptr) report.Check(false, std::string("metric ") + spec.name + " missing");
      report.metrics.push_back({spec.name, m != nullptr ? m->value : 0.0, spec.unit});
    }
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(report).c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
