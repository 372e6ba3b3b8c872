// The four perfbench workloads. Each drives the program only through its
// public API, checks every output, and returns its metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Pinned digests (golden/digests.txt).
  std::string golden;
  /// Scratch directory for caches and traces; removed entries stay
  /// inside it.
  std::string work_dir;
};

/// grid_serial (fanout = false) or grid_fanout (fanout = true).
RunResult RunGrid(const Options& options, Recorder& recorder, bool fanout);

/// serve_point (bulk = false) or serve_bulk (bulk = true).
RunResult RunServe(const Options& options, Recorder& recorder, bool bulk);

/// Adds the program's own obs counters (model fits, pool tasks) as
/// counted since the process started.
void AddProgramCounters(RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
