// Tests of the benchmark's own helpers: percentiles with their sample
// count, self time, the grid digest, and due-time latency under a stall.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

namespace perfbench {
namespace {

TEST(Summarize, PercentilesCarryTheirSampleCount) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, unsorted
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p99, 99.0);
  // Rank 90 is the highest with 10 samples (91..100) beyond it.
  EXPECT_DOUBLE_EQ(s.top_q, 0.90);
  EXPECT_EQ(s.top, 90.0);
}

TEST(Summarize, TopPercentileNeedsMoreThanTenSamples) {
  const Summary eleven = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(eleven.top, 1.0);  // exactly 10 samples beyond rank 1
  const Summary ten = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(ten.count, 10u);
  EXPECT_TRUE(std::isnan(ten.top));
  EXPECT_EQ(ten.p99, 10.0);
  const Summary one = Summarize({7});
  EXPECT_EQ(one.p50, 7.0);
  EXPECT_EQ(one.p99, 7.0);
  EXPECT_TRUE(std::isnan(Summarize({}).p50));
}

TEST(MedianWindowRate, IgnoresOneDisturbedWindow) {
  std::vector<double> events;
  for (int i = 0; i < 1000; ++i) {
    const double t = i * 0.01;              // 100 events/s for 10 s ...
    if (t < 3.0 || t >= 4.0) events.push_back(t);  // ... but none in [3, 4)
  }
  EXPECT_DOUBLE_EQ(MedianWindowRate(events, 10.0, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(MedianWindowRate({0.1, 0.2}, 0.5, 1.0), 4.0);  // no whole window
}

TEST(MedianWindowMedian, IgnoresOneDisturbedWindow) {
  std::vector<double> time_s;
  std::vector<double> value;
  for (int i = 0; i < 1000; ++i) {
    time_s.push_back(i * 0.01);
    value.push_back(i >= 300 && i < 400 ? 100.0 : 1.0 + (i % 3));  // slow in [3, 4)
  }
  EXPECT_DOUBLE_EQ(MedianWindowMedian(time_s, value, 10.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(MedianWindowMedian({0.1, 0.2, 0.3}, {5, 1, 3}, 0.5, 1.0), 3.0);
}

Span MakeSpan(int id, int parent, double start, double end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = "s" + std::to_string(id);
  span.start_s = start;
  span.end_s = end;
  return span;
}

TEST(SelfTimes, SubtractsNestedChildren) {
  // root [0,10] > a [1,3] > b [1.5,2.5]; root > c [5,6].
  const std::vector<Span> spans = {MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 3),
                                   MakeSpan(2, 1, 1.5, 2.5), MakeSpan(3, 0, 5, 6)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 7.0);  // only direct children count
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTimes, MergesOverlappingChildrenAndClipsToParent) {
  // Parallel children [1,4] and [2,6] cover [1,6]; [9,12] sticks out of
  // the parent and counts only up to 10.
  const std::vector<Span> spans = {MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 4),
                                   MakeSpan(2, 0, 2, 6), MakeSpan(3, 0, 9, 12)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_GE(self[0], 0.0);
}

TEST(Recorder, DisabledRecordsNothing) {
  Recorder off(false, 1);
  { Recorder::Scope span(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
  Recorder on(true, 1);
  {
    Recorder::Scope outer(on, "outer");
    Recorder::Scope inner(on, "inner", outer.id());
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, on.spans()[0].id);
  EXPECT_GE(on.TotalSeconds("outer"), on.TotalSeconds("inner"));
}

/// A pipeline small enough for a unit test.
fab::core::ExperimentConfig TinyPipeline(const std::string& cache_dir) {
  fab::core::ExperimentConfig config;
  config.seed = 5;
  config.fast = true;
  config.cache_dir = cache_dir;
  config.fra.rf.n_trees = 6;
  config.fra.rf.max_depth = 4;
  config.fra.xgb.n_rounds = 8;
  config.fra.xgb.max_depth = 3;
  config.fra.pfi_repeats = 1;
  config.feature_vector.rf = config.fra.rf;
  config.feature_vector.shap_row_limit = 30;
  config.improvement.cv_folds = 3;
  config.improvement.rf = config.fra.rf;
  config.improvement.xgb = config.fra.xgb;
  return config;
}

/// The digest text the grid workloads hash: names and MSEs as "%a".
std::string GridDigest(const std::string& cache_dir) {
  std::filesystem::remove_all(cache_dir);
  fab::core::Experiments ex(TinyPipeline(cache_dir));
  auto fvec = ex.FinalVector(fab::core::StudyPeriod::k2019, 7);
  auto imp = ex.Improvement(fab::core::StudyPeriod::k2019, 7,
                            fab::core::ModelKind::kGbdt);
  std::filesystem::remove_all(cache_dir);
  if (!fvec.ok() || !imp.ok()) return "failed";
  std::string text;
  for (const std::string& name : fvec->features) text += name + ",";
  text += HexFloat(imp->diverse_mse);
  return Hex64(Fnv1a(text));
}

TEST(Digest, SameAcrossTwoRuns) {
  const std::string dir = ::testing::TempDir() + "perfbench_digest_cache";
  const std::string first = GridDigest(dir);
  ASSERT_NE(first, "failed");
  EXPECT_EQ(first, GridDigest(dir));
  EXPECT_EQ(HexFloat(0.5), "0x1p-1");
  EXPECT_EQ(Hex64(Fnv1a("")), "cbf29ce484222325");
}

TEST(OpenLoop, DueTimeLatencyChargesAStall) {
  // 1000 req/s on one sender; request 10 stalls for 50 ms. The requests
  // that came due during the stall wait behind it, and their latency,
  // measured from when they were due, shows the wait.
  const OpenLoopStats stats = RunOpenLoop(100, 1000.0, 1, [](size_t i, int) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  });
  ASSERT_EQ(stats.latency_ms.size(), 100u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.latency_ms[10], 50.0);
  EXPECT_GE(stats.latency_ms[11], 45.0);  // due 1 ms after the stall began
  EXPECT_GE(stats.late_ms[11], 45.0);
  size_t delayed = 0;
  for (double ms : stats.latency_ms) delayed += ms >= 10.0 ? 1 : 0;
  EXPECT_GE(delayed, 40u);  // about 50 requests came due during the stall
  const Summary late = Summarize(stats.late_ms);
  EXPECT_GE(late.p99, 40.0);
}

TEST(OpenLoop, FailedRequestsMissEveryLimit) {
  const OpenLoopStats stats =
      RunOpenLoop(20, 10000.0, 2, [](size_t i, int) { return i % 5 != 0; });
  EXPECT_EQ(stats.failed, 4u);
  size_t infinite = 0;
  for (double ms : stats.latency_ms) infinite += std::isinf(ms) ? 1 : 0;
  EXPECT_EQ(infinite, 4u);
}

TEST(RunResult, JsonLine) {
  RunResult result;
  result.Check(true, "ok");
  result.Add("wall_s", 1.5, "s");
  EXPECT_EQ(ResultJson(result),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,"
            "\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}");
  result.Add("bad", std::nan(""), "s");
  EXPECT_EQ(result.failed, 1u);
}

}  // namespace
}  // namespace perfbench
