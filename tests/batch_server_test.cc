#include "serve/batch_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ml/forest.h"
#include "util/random.h"

namespace fab::serve {
namespace {

ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *ml::ColMatrix::FromColumns(std::move(cols));
}

std::vector<double> RowOf(const ml::ColMatrix& x, size_t row) {
  std::vector<double> features(x.cols());
  for (size_t j = 0; j < x.cols(); ++j) features[j] = x.at(row, j);
  return features;
}

std::shared_ptr<const Servable> TrainServable(uint64_t seed,
                                              size_t features = 6) {
  const ml::ColMatrix train = MakeMatrix(200, features, seed);
  Rng rng(seed + 1);
  std::vector<double> y(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    y[i] = train.at(i, 0) + 2.0 * train.at(i, 1) + 0.1 * rng.Normal();
  }
  ml::ForestParams params;
  params.n_trees = 12;
  params.seed = seed;
  auto rf = std::make_unique<ml::RandomForestRegressor>(params);
  EXPECT_TRUE(rf->Fit(train, y).ok());
  auto servable = Servable::Wrap(std::move(rf));
  EXPECT_TRUE(servable.ok());
  return *servable;
}

/// A regressor whose Predict blocks for a fixed delay per call — lets
/// tests hold the worker pool busy so queue-bound and drain-deadline
/// paths actually trigger.
class SlowRegressor : public ml::Regressor {
 public:
  explicit SlowRegressor(int delay_ms, double value = 7.0)
      : delay_ms_(delay_ms), value_(value) {}

  Status Fit(const ml::ColMatrix&, const std::vector<double>&) override {
    return Status::OK();
  }
  double PredictOne(const ml::ColMatrix&, size_t) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return value_;
  }
  std::vector<double> Predict(const ml::ColMatrix& x) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return std::vector<double>(x.rows(), value_);
  }
  Status SetParam(const std::string&, double) override { return Status::OK(); }
  std::unique_ptr<ml::Regressor> CloneUnfitted() const override {
    return std::make_unique<SlowRegressor>(delay_ms_, value_);
  }
  std::vector<double> FeatureImportances() const override { return {}; }
  std::string name() const override { return "slow"; }

 private:
  int delay_ms_;
  double value_;
};

std::shared_ptr<const Servable> MakeSlowServable(int delay_ms,
                                                 double value = 7.0) {
  auto servable =
      Servable::Wrap(std::make_unique<SlowRegressor>(delay_ms, value));
  EXPECT_TRUE(servable.ok());
  return *servable;
}

TEST(BatchServerTest, ServesSameResultsAsDirectPredict) {
  auto servable = TrainServable(31);
  const ml::ColMatrix queries = MakeMatrix(80, 6, 32);
  const std::vector<double> want = servable->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 3;
  options.max_batch = 16;
  BatchServer server(servable, options);

  std::vector<std::future<Result<double>>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto submitted = server.Submit(RowOf(queries, i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "request " << i;
    EXPECT_EQ(*got, want[i]) << "request " << i;
  }
}

TEST(BatchServerTest, ConcurrentClientsAndStats) {
  auto servable = TrainServable(33);
  const ml::ColMatrix queries = MakeMatrix(64, 6, 34);
  const std::vector<double> want = servable->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  BatchServer server(servable, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 100);
      for (int i = 0; i < kPerClient; ++i) {
        const size_t row = rng.UniformInt(queries.rows());
        auto result = server.Forecast(RowOf(queries, row));
        if (!result.ok() || *result != want[row]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.requests_rejected, 0u);
  EXPECT_EQ(stats.requests_abandoned, 0u);
  EXPECT_GE(stats.batches_run, 1u);
  EXPECT_LE(stats.batches_run, stats.requests_completed);
  EXPECT_GE(stats.mean_batch_size, 1.0);
  EXPECT_LE(stats.p50_latency_us, stats.p99_latency_us);
  EXPECT_LE(stats.p99_latency_us, stats.max_latency_us);
  EXPECT_GT(stats.rows_per_sec, 0.0);
}

TEST(BatchServerTest, StatszJsonMatchesStats) {
  auto servable = TrainServable(45);
  const ml::ColMatrix queries = MakeMatrix(24, 6, 46);
  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  BatchServer server(servable, options);
  for (size_t i = 0; i < queries.rows(); ++i) {
    ASSERT_TRUE(server.Forecast(RowOf(queries, i)).ok());
  }

  const BatchServerStats stats = server.Stats();
  const std::string json = server.StatszJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Exact counters agree with the struct readout.
  EXPECT_NE(json.find("\"requests_completed\":" +
                      std::to_string(stats.requests_completed)),
            std::string::npos);
  EXPECT_NE(
      json.find("\"batches_run\":" + std::to_string(stats.batches_run)),
      std::string::npos);
  // Admission counters surface for the net front-end's /statusz.
  EXPECT_NE(json.find("\"requests_rejected\":0"), std::string::npos);
  EXPECT_NE(json.find("\"requests_abandoned\":0"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(json.find("\"est_queue_wait_us\":"), std::string::npos);
  // Histogram blocks are present with the percentile keys dashboards read.
  for (const char* block : {"\"latency_us\":{", "\"batch_size\":{",
                            "\"queue_wait_us\":{"}) {
    EXPECT_NE(json.find(block), std::string::npos) << block;
  }
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(BatchServerTest, RejectsWrongFeatureCount) {
  BatchServer server(TrainServable(35), BatchServerOptions{});
  EXPECT_EQ(server.num_features(), 6u);
  auto result = server.Submit({1.0, 2.0});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchServerTest, HotSwapServesNewModel) {
  auto old_model = TrainServable(36);
  auto new_model = TrainServable(37);
  const ml::ColMatrix queries = MakeMatrix(4, 6, 38);

  BatchServerOptions options;
  options.num_threads = 1;
  options.coalesce_wait_us = 0;
  BatchServer server(old_model, options);
  auto before = server.Forecast(RowOf(queries, 0));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, old_model->PredictOne(queries, 0));

  server.UpdateModel(new_model);
  auto after = server.Forecast(RowOf(queries, 0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, new_model->PredictOne(queries, 0));
}

TEST(BatchServerTest, KeyedSubmitServesPerRequestModels) {
  // One BatchServer, many models: the fab::net shard pattern. Rows carry
  // their own Servable and must be answered by it, not the default.
  auto model_a = TrainServable(51);
  auto model_b = TrainServable(52);
  const ml::ColMatrix queries = MakeMatrix(40, 6, 53);
  const std::vector<double> want_a = model_a->Predict(queries);
  const std::vector<double> want_b = model_b->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  // No default model: the keyed path supplies one per request.
  BatchServer server(nullptr, options);

  std::vector<std::future<Result<double>>> futures_a;
  std::vector<std::future<Result<double>>> futures_b;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto a = server.SubmitTo(model_a, RowOf(queries, i));
    auto b = server.SubmitTo(model_b, RowOf(queries, i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    futures_a.push_back(std::move(*a));
    futures_b.push_back(std::move(*b));
  }
  for (size_t i = 0; i < queries.rows(); ++i) {
    Result<double> got_a = futures_a[i].get();
    Result<double> got_b = futures_b[i].get();
    ASSERT_TRUE(got_a.ok());
    ASSERT_TRUE(got_b.ok());
    EXPECT_EQ(*got_a, want_a[i]) << "model_a row " << i;
    EXPECT_EQ(*got_b, want_b[i]) << "model_b row " << i;
  }
  // Interleaved two-model traffic still coalesces: fewer batches than
  // requests proves same-model runs were extracted, not row-at-a-time.
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, 2 * queries.rows());
  EXPECT_LT(stats.batches_run, stats.requests_completed);

  // Keyed feature validation uses the request's model, not the default.
  auto bad = server.SubmitTo(model_a, {1.0});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.SubmitTo(nullptr, RowOf(queries, 0)).ok());
}

TEST(BatchServerTest, SubmitBlockCompletesWithoutBlocking) {
  auto model = TrainServable(54);
  const ml::ColMatrix queries = MakeMatrix(16, 6, 55);
  const std::vector<double> want = model->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(nullptr, options);

  // Four 4-row blocks; each callback gets its block's rows in order.
  constexpr size_t kRows = 4;
  std::atomic<int> completions{0};
  std::atomic<int> mismatches{0};
  for (size_t first = 0; first < queries.rows(); first += kRows) {
    std::vector<double> block;
    for (size_t r = first; r < first + kRows; ++r) {
      const std::vector<double> row = RowOf(queries, r);
      block.insert(block.end(), row.begin(), row.end());
    }
    const std::vector<double> expect(want.begin() + first,
                                     want.begin() + first + kRows);
    Status admitted = server.Submit(
        model, std::move(block), kRows,
        [&, expect](Result<std::vector<double>> result) {
          if (!result.ok() || *result != expect) mismatches.fetch_add(1);
          completions.fetch_add(1);
        });
    ASSERT_TRUE(admitted.ok());
  }
  server.Shutdown();  // drains: every callback has fired by return
  EXPECT_EQ(completions.load(), static_cast<int>(queries.rows() / kRows));
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.Stats().requests_completed, queries.rows());

  // Admission-layer preconditions are synchronous errors.
  EXPECT_EQ(server
                .Submit(nullptr, RowOf(queries, 0), 1,
                        [](Result<std::vector<double>>) {})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(model, RowOf(queries, 0), 1, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchServerTest, BlockWithABadRowIsRefusedWhole) {
  auto model = TrainServable(56);
  BatchServerOptions options;
  options.num_threads = 1;
  BatchServer server(nullptr, options);
  std::atomic<int> completions{0};
  const auto count = [&completions](Result<std::vector<double>>) {
    completions.fetch_add(1);
  };
  // Eleven values are not two rows; twelve are two rows of 6, not 3 of 4.
  EXPECT_EQ(server.Submit(model, std::vector<double>(11, 0.0), 2, count).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(model, std::vector<double>(12, 0.0), 3, count).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(model, {}, 0, count).code(),
            StatusCode::kInvalidArgument);
  server.Shutdown();
  EXPECT_EQ(completions.load(), 0);
  EXPECT_EQ(server.Stats().batches_run, 0u);
}

TEST(BatchServerTest, QueueBoundCountsRowsAndNeverSplitsABlock) {
  // The worker is parked on a 200ms row; a 5-slot queue then takes a
  // 3-row block, refuses a 3-row block whole, and takes a 2-row one. A
  // block larger than max_batch still runs as one batch.
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 2;
  options.coalesce_wait_us = 0;
  options.max_queue = 5;
  auto slow = MakeSlowServable(200, 1.5);
  BatchServer server(nullptr, options);
  std::promise<void> parked;
  ASSERT_TRUE(server
                  .Submit(slow, {0.0}, 1,
                          [&parked](Result<std::vector<double>>) {
                            parked.set_value();
                          })
                  .ok());
  while (server.QueueDepth() != 0) std::this_thread::yield();

  std::atomic<int> sizes_ok{0};
  const auto expect_rows = [&sizes_ok](size_t rows) {
    return [&sizes_ok, rows](Result<std::vector<double>> result) {
      if (result.ok() && result->size() == rows) sizes_ok.fetch_add(1);
    };
  };
  ASSERT_TRUE(server.Submit(slow, std::vector<double>(3, 0.0), 3,
                            expect_rows(3))
                  .ok());
  EXPECT_EQ(server.QueueDepth(), 3u);
  EXPECT_EQ(server.Submit(slow, std::vector<double>(3, 0.0), 3,
                          expect_rows(3))
                .code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(server.Submit(slow, std::vector<double>(2, 0.0), 2,
                            expect_rows(2))
                  .ok());
  EXPECT_EQ(server.QueueDepth(), 5u);
  parked.get_future().wait();
  server.Shutdown();
  EXPECT_EQ(sizes_ok.load(), 2);
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_rejected, 3u);
  EXPECT_EQ(stats.requests_completed, 6u);
  EXPECT_EQ(stats.batches_run, 3u);  // 1 row, then 3 (> max_batch), then 2
}

TEST(BatchServerTest, BoundedQueueShedsWithUnavailable) {
  // One slow single-threaded worker + a 4-slot queue: once the worker is
  // busy and the queue is full, further submits must fail fast with
  // kUnavailable (the signal the HTTP layer turns into 429).
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.coalesce_wait_us = 0;
  options.max_queue = 4;
  BatchServer server(MakeSlowServable(/*delay_ms=*/50), options);

  std::vector<std::future<Result<double>>> admitted;
  uint64_t rejected = 0;
  // 16 instantaneous submits against 1 in-flight + 4 queue slots: at
  // least one must be shed (the worker can't drain 16×50ms instantly).
  for (int i = 0; i < 16; ++i) {
    auto submitted = server.Submit({1.0});
    if (submitted.ok()) {
      admitted.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Every admitted request still completes normally.
  for (auto& future : admitted) {
    Result<double> got = future.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 7.0);
  }
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_rejected, rejected);
  EXPECT_EQ(stats.requests_completed, admitted.size());
}

TEST(BatchServerTest, EstimatedQueueWaitTracksServiceTime) {
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.coalesce_wait_us = 0;
  BatchServer server(MakeSlowServable(/*delay_ms=*/20), options);

  EXPECT_EQ(server.EstimatedQueueWaitUs(), 0.0);  // no samples yet
  ASSERT_TRUE(server.Forecast({1.0}).ok());       // seeds the EMA

  // Park the worker and stack the queue; the estimate must now predict a
  // wait in the order of queue_depth × ~20ms.
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 6; ++i) {
    auto submitted = server.Submit({1.0});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  const double est = server.EstimatedQueueWaitUs();
  EXPECT_GT(est, 0.0);
  EXPECT_GT(server.QueueDepth(), 0u);
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_EQ(server.QueueDepth(), 0u);
  // Single-row batches at ~20ms/row: the EMA must be in that decade.
  EXPECT_GT(est, 1000.0);
}

TEST(BatchServerTest, ShutdownDrainsAndRejectsNewWork) {
  auto servable = TrainServable(39);
  const ml::ColMatrix queries = MakeMatrix(32, 6, 40);
  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(servable, options);

  std::vector<std::future<Result<double>>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto submitted = server.Submit(RowOf(queries, i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Shutdown();
  // Every accepted request was answered before the workers exited.
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(server.Stats().requests_completed, queries.rows());
  EXPECT_EQ(server.Stats().requests_abandoned, 0u);
  // New work is refused after shutdown.
  EXPECT_FALSE(server.Submit(RowOf(queries, 0)).ok());
}

TEST(BatchServerTest, ShutdownDeadlineNeverSilentlyDropsRequests) {
  // Regression for the drain-under-deadline contract: with a worker too
  // slow to drain the backlog inside shutdown_drain_ms, leftover
  // requests must resolve with an explicit kUnavailable — every future
  // fires, nothing hangs, and completed + abandoned accounts for every
  // accepted request.
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.coalesce_wait_us = 0;
  options.shutdown_drain_ms = 60;  // ~1 slow batch worth of drain budget
  BatchServer server(MakeSlowServable(/*delay_ms=*/50), options);

  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 12; ++i) {
    auto submitted = server.Submit({1.0});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Shutdown();

  uint64_t served = 0;
  uint64_t abandoned = 0;
  for (auto& future : futures) {
    // Must not block: every promise was fulfilled by Shutdown's return.
    Result<double> got = future.get();
    if (got.ok()) {
      EXPECT_EQ(*got, 7.0);
      ++served;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++abandoned;
    }
  }
  EXPECT_EQ(served + abandoned, futures.size());
  EXPECT_GT(abandoned, 0u);  // 12×50ms cannot drain in 60ms
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, served);
  EXPECT_EQ(stats.requests_abandoned, abandoned);
}

TEST(BatchServerTest, StartAfterShutdownRevivesServer) {
  auto servable = TrainServable(41);
  const ml::ColMatrix queries = MakeMatrix(8, 6, 42);
  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(servable, options);

  ASSERT_TRUE(server.Forecast(RowOf(queries, 0)).ok());
  server.Shutdown();
  EXPECT_FALSE(server.Submit(RowOf(queries, 0)).ok());

  server.Start();
  auto revived = server.Forecast(RowOf(queries, 1));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(*revived, servable->PredictOne(queries, 1));
  // Stats carried over across the restart: both eras are counted.
  EXPECT_GE(server.Stats().requests_completed, 2u);
}

TEST(BatchServerTest, StartStopStartStressJoinsCleanly) {
  // TSan-exercised (batch_server_test_tsan): hammer the lifecycle while
  // client threads submit continuously. Every accepted future must
  // resolve (no promise ever abandoned without an error), every cycle
  // must join cleanly, and the cv wait predicates must read only
  // mu_-guarded state.
  auto servable = TrainServable(43);
  const ml::ColMatrix queries = MakeMatrix(16, 6, 44);
  BatchServerOptions options;
  options.num_threads = 2;
  options.coalesce_wait_us = 50;
  BatchServer server(servable, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      size_t row = static_cast<size_t>(c);
      while (!stop.load()) {
        auto submitted = server.Submit(RowOf(queries, row % queries.rows()));
        ++row;
        if (!submitted.ok()) continue;  // server between Shutdown and Start
        accepted.fetch_add(1);
        // Must resolve: Shutdown drains or errors every accepted request.
        if (submitted->get().ok()) {
          served.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (int cycle = 0; cycle < 10; ++cycle) {
    server.Shutdown();
    server.Start();
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  server.Shutdown();
  EXPECT_EQ(accepted.load(), served.load() + failed.load());
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, served.load());
  EXPECT_EQ(stats.requests_abandoned, failed.load());
}

}  // namespace
}  // namespace fab::serve
