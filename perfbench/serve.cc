// serve_point and serve_bulk: POST /predict over loopback HTTP through
// serve::ModelRegistry -> net::ShardedRouter -> net::ForecastService ->
// net::HttpServer, all in this process.
//
// Three models (RF, GBDT, MLP) with the full-profile parameters
// ExportModel uses are fitted once on generated data 100 features wide,
// then installed under the 10 scenario keys of their family: 30 keys.
// Every forecast of every 200 response must equal, bit for bit, what the
// installed Servable predicts for the same row.
//
// The served models are the same on every run: they are fitted from the
// repo's default seed (42), like deployed artifacts. --seed generates the
// traffic, the request rows. The MLP stops early after a seed-dependent
// number of epochs, so per-seed models would make setup time swing by 3x.

#include <algorithm>
#include <limits>
#include <map>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "net/forecast_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using fab::serve::ModelKey;

constexpr uint64_t kModelSeed = 42;
constexpr size_t kFeatures = 100;
constexpr size_t kTrainRows = 1000;
/// serve_point: open-loop arrival rate, rows per request, bodies per key.
constexpr double kPointRate = 2000.0;
constexpr size_t kPointRows = 1;
constexpr size_t kPointBodiesPerKey = 16;
/// serve_bulk: rows per request, bodies per key.
constexpr size_t kBulkRows = 64;
constexpr size_t kBulkBodiesPerKey = 4;
/// Setting up (mostly model fitting) is repeated; setup_s is the median.
constexpr int kSetupRepeats = 5;

std::vector<ModelKey> AllKeys() {
  std::vector<ModelKey> keys;
  for (const char* model : {"rf", "xgb", "mlp"}) {
    for (const char* period : {"2017", "2019"}) {
      for (int window : {1, 7, 30, 90, 180}) keys.push_back({period, window, model});
    }
  }
  return keys;
}

int HostThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One request body and the forecasts its rows must get back.
struct Body {
  ModelKey key;
  fab::ml::ColMatrix rows;
  std::string json;
  std::vector<double> expected;
};

fab::ml::ColMatrix RandomRows(size_t n, fab::Rng& rng) {
  std::vector<std::vector<double>> cols(kFeatures, std::vector<double>(n));
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < kFeatures; ++f) cols[f][r] = rng.Normal();
  }
  return *fab::ml::ColMatrix::FromColumns(std::move(cols));
}

std::string PredictJson(const ModelKey& key, const fab::ml::ColMatrix& x) {
  std::string out = "{\"period\":\"" + key.period +
                    "\",\"window\":" + std::to_string(key.window) +
                    ",\"model\":\"" + key.model + "\",\"rows\":[";
  char buf[32];
  for (size_t r = 0; r < x.rows(); ++r) {
    out += r == 0 ? "[" : ",[";
    for (size_t f = 0; f < x.cols(); ++f) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", f == 0 ? "" : ",", x.at(r, f));
      out += buf;
    }
    out += "]";
  }
  return out + "]}";
}

/// Bodies in round-robin key order: body b is for key b % 30.
std::vector<Body> MakeBodies(uint64_t seed, size_t rows, size_t per_key) {
  const std::vector<ModelKey> keys = AllKeys();
  fab::Rng rng(seed ^ 0xB0D1E5ull);
  std::vector<Body> bodies;
  for (size_t b = 0; b < keys.size() * per_key; ++b) {
    Body body;
    body.key = keys[b % keys.size()];
    body.rows = RandomRows(rows, rng);
    body.json = PredictJson(body.key, body.rows);
    bodies.push_back(std::move(body));
  }
  return bodies;
}

/// The serving stack of one setup. Destruction stops it.
struct ServeStack {
  std::string root;
  std::unique_ptr<fab::serve::ModelRegistry> registry;
  std::unique_ptr<fab::net::ShardedRouter> router;
  std::unique_ptr<fab::net::ForecastService> service;
  std::unique_ptr<fab::net::HttpServer> server;
  std::vector<std::unique_ptr<fab::net::HttpClient>> clients;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    if (router != nullptr) router->Shutdown();
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

/// Fits the three models, installs them under all 30 keys, starts the
/// router and server, loads every key over HTTP and opens one keep-alive
/// connection per sender. Null on failure (reported through `result`).
std::unique_ptr<ServeStack> SetUp(const Options& options, int senders,
                                  RunResult& result) {
  // Full profile: the parameters ExportModel fits with.
  unsetenv("FAB_FAST");
  setenv("FAB_SEED", std::to_string(kModelSeed).c_str(), 1);
  const fab::core::ExperimentConfig config = fab::core::ExperimentConfig::FromEnv();

  fab::Rng rng(kModelSeed ^ 0x7EA1ull);
  const fab::ml::ColMatrix x = RandomRows(kTrainRows, rng);
  std::vector<double> y(kTrainRows);
  for (size_t i = 0; i < kTrainRows; ++i) {
    y[i] = x.at(i, 0) - 0.5 * x.at(i, 1) + 0.3 * x.at(i, 2) * x.at(i, 3) +
           0.2 * std::sin(x.at(i, 4)) + 0.1 * rng.Normal();
  }
  fab::ml::RandomForestRegressor rf(config.scoring_rf);
  fab::ml::GbdtRegressor gbdt(config.improvement.xgb);
  fab::ml::MlpRegressor mlp(config.serving_mlp);
  std::map<std::string, std::string> snapshots;
  for (fab::ml::Regressor* model :
       std::initializer_list<fab::ml::Regressor*>{&rf, &gbdt, &mlp}) {
    result.Check(model->Fit(x, y).ok(), "fit " + model->name());
    auto bytes = fab::serve::SnapshotCodec::Encode(*model);
    result.Check(bytes.ok(), "encode " + model->name());
    if (!bytes.ok()) return nullptr;
    snapshots[model->name()] = std::move(*bytes);
  }

  auto stack = std::make_unique<ServeStack>();
  stack->root = options.work_dir + "/registry_" + options.workload;
  fs::remove_all(stack->root);
  fs::create_directories(stack->root);
  stack->registry = std::make_unique<fab::serve::ModelRegistry>(stack->root);
  for (const ModelKey& key : AllKeys()) {
    auto model = fab::serve::SnapshotCodec::Decode(snapshots[key.model]);
    const bool ok = model.ok() && stack->registry->Put(key, std::move(*model)).ok();
    result.Check(ok, "install " + key.ToString());
    if (!ok) return nullptr;
  }

  // Sized for the host as examples/forecast_server is on 4 cores, except
  // admission: the benchmark measures served forecasts, not shedding. At
  // most `senders` requests are in flight, so a queue bound of twice their
  // rows is never reached even when every one of them hashes to the same
  // shard (with the default 256, four 64-row requests on one shard shed),
  // and the queue-wait SLO arm is off, as on a shared host it sheds
  // whenever another tenant stalls the batch threads.
  const int threads = HostThreads();
  fab::net::ShardedRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.threads_per_shard = std::max(1, threads / 2);
  router_options.max_batch = 32;
  router_options.max_shard_queue =
      std::max<size_t>(256, 2 * static_cast<size_t>(senders) * kBulkRows);
  router_options.slo_queue_wait_us = 0.0;
  auto router = fab::net::ShardedRouter::Create(stack->registry.get(), router_options);
  result.Check(router.ok(), "create router");
  if (!router.ok()) return nullptr;
  stack->router = std::move(*router);
  stack->service = std::make_unique<fab::net::ForecastService>(stack->router.get());
  fab::net::HttpServerOptions server_options;
  server_options.num_workers = threads;
  stack->server = std::make_unique<fab::net::HttpServer>(server_options);
  stack->service->RegisterRoutes(stack->server.get());
  result.Check(stack->server->Start().ok(), "start server");

  for (int i = 0; i < senders; ++i) {
    stack->clients.push_back(
        std::make_unique<fab::net::HttpClient>("127.0.0.1", stack->server->port()));
    auto health = stack->clients.back()->Get("/healthz");
    result.Check(health.ok() && health->status_code == 200, "open connection");
  }
  return stack;
}

/// Fills each body's expected forecasts from the installed servables.
void ComputeExpected(ServeStack& stack, std::vector<Body>& bodies, RunResult& result) {
  for (Body& body : bodies) {
    auto servable = stack.registry->Get(body.key);
    result.Check(servable.ok(), "servable " + body.key.ToString());
    if (servable.ok()) body.expected = (*servable)->Predict(body.rows);
  }
}

/// POSTs `body` and checks every forecast bit for bit.
bool PostAndCheck(fab::net::HttpClient& client, const Body& body) {
  auto response = client.Post("/predict", body.json);
  if (!response.ok() || response->status_code != 200) return false;
  auto doc = fab::net::ParseJson(response->body);
  if (!doc.ok()) return false;
  const fab::net::JsonValue* forecasts = doc->Find("forecasts");
  if (forecasts == nullptr || !forecasts->is_array() ||
      forecasts->array().size() != body.expected.size()) {
    return false;
  }
  for (size_t i = 0; i < body.expected.size(); ++i) {
    const fab::net::JsonValue& v = forecasts->array()[i];
    if (!v.is_number() || std::bit_cast<uint64_t>(v.number()) !=
                              std::bit_cast<uint64_t>(body.expected[i])) {
      return false;
    }
  }
  return true;
}

/// Shard counters summed (queue-wait percentiles: max) over /statusz.
struct ShardTotals {
  double completed = 0.0;
  double rejected = 0.0;
  double batches = 0.0;
  double shed = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

double Number(const fab::net::JsonValue* v, const std::string& key) {
  const fab::net::JsonValue* field = v == nullptr ? nullptr : v->Find(key);
  return field != nullptr && field->is_number() ? field->number() : 0.0;
}

ShardTotals ReadStatusz(fab::net::HttpClient& client, RunResult& result) {
  ShardTotals totals;
  auto response = client.Get("/statusz");
  auto doc = response.ok() && response->status_code == 200
                 ? fab::net::ParseJson(response->body)
                 : fab::Result<fab::net::JsonValue>(fab::Status::Internal("no /statusz"));
  const fab::net::JsonValue* router = doc.ok() ? doc->Find("router") : nullptr;
  const fab::net::JsonValue* shards = router != nullptr ? router->Find("shards") : nullptr;
  result.Check(shards != nullptr && shards->is_array(), "GET /statusz");
  if (shards == nullptr || !shards->is_array()) return totals;
  for (const fab::net::JsonValue& shard : shards->array()) {
    const fab::net::JsonValue* server = shard.Find("server");
    totals.shed += Number(&shard, "shed_queue_full") + Number(&shard, "shed_slo");
    totals.completed += Number(server, "requests_completed");
    totals.rejected += Number(server, "requests_rejected");
    totals.batches += Number(server, "batches_run");
    const fab::net::JsonValue* wait = server != nullptr ? server->Find("queue_wait_us") : nullptr;
    totals.queue_wait_p50_us = std::max(totals.queue_wait_p50_us, Number(wait, "p50"));
    totals.queue_wait_p99_us = std::max(totals.queue_wait_p99_us, Number(wait, "p99"));
  }
  return totals;
}

/// The /rpcz latency histogram of POST /predict.
const fab::net::JsonValue* PredictRpcz(const fab::net::JsonValue& doc) {
  const fab::net::JsonValue* server = doc.Find("server");
  const fab::net::JsonValue* endpoints = server != nullptr ? server->Find("endpoints") : nullptr;
  if (endpoints == nullptr || !endpoints->is_array()) return nullptr;
  for (const fab::net::JsonValue& e : endpoints->array()) {
    const fab::net::JsonValue* path = e.Find("path");
    if (path != nullptr && path->is_string() && path->str() == "/predict") {
      return e.Find("latency_us");
    }
  }
  return nullptr;
}

/// Median ns per row of Servable::Predict on `rows`-row batches.
double KernelNsPerRow(ServeStack& stack, const std::vector<Body>& bodies,
                      const std::string& model, size_t rows, RunResult& result) {
  auto servable = stack.registry->Get({"2019", 30, model});
  result.Check(servable.ok(), "kernel probe servable " + model);
  if (!servable.ok()) return 0.0;
  std::vector<std::vector<double>> cols(kFeatures);
  for (size_t b = 0; cols[0].size() < rows; ++b) {
    const fab::ml::ColMatrix& x = bodies[b % bodies.size()].rows;
    for (size_t r = 0; r < x.rows() && cols[0].size() < rows; ++r) {
      for (size_t f = 0; f < kFeatures; ++f) cols[f].push_back(x.at(r, f));
    }
  }
  const fab::ml::ColMatrix batch = *fab::ml::ColMatrix::FromColumns(std::move(cols));
  std::vector<double> ns;
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  while (ns.size() < 50 || SecondsSince(start) < 0.2) {
    const Clock::time_point t0 = Clock::now();
    checksum += (*servable)->Predict(batch)[0];
    ns.push_back(1e9 * SecondsSince(t0) / static_cast<double>(rows));
  }
  result.Check(std::isfinite(checksum), "kernel probe output " + model);
  return Median(ns);
}

}  // namespace

RunResult RunServe(const Options& options, Recorder& rec, bool bulk) {
  RunResult result;
  const int senders = HostThreads();
  std::vector<Body> bodies =
      MakeBodies(options.seed, bulk ? kBulkRows : kPointRows,
                 bulk ? kBulkBodiesPerKey : kPointBodiesPerKey);

  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Recorder::Scope span(rec, "setup");
    stack.reset();
    stack = SetUp(options, senders, result);
    if (stack == nullptr) return result;
    ComputeExpected(*stack, bodies, result);
    // Load every key through the whole stack.
    for (size_t k = 0; k < AllKeys().size(); ++k) {
      result.Check(PostAndCheck(*stack->clients[0], bodies[k]),
                   "warm-up /predict " + bodies[k].key.ToString());
    }
    setup_s.push_back(SecondsSince(t0));
  }
  fab::net::HttpClient& probe = *stack->clients[0];

  if (options.trace) {
    std::vector<double> rtt_us;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto health = probe.Get("/healthz");
      rtt_us.push_back(1e6 * SecondsSince(t0));
      result.Check(health.ok() && health->status_code == 200, "GET /healthz");
    }
    result.Add("net.healthz_rtt_us", Median(rtt_us), "us");
  }
  const ShardTotals before = ReadStatusz(probe, result);

  // --- Timed phase. No clock starts before this point. ---
  std::vector<double> latency_ms;
  std::vector<double> sent_s;  // when each request was due (point) or sent (bulk)
  std::vector<double> done_s;  // serve_bulk: completion times of correct requests
  std::vector<double> late_ms;
  size_t ok_requests = 0;
  size_t sent = 0;
  double elapsed_s = 0.0;
  const int load = rec.Begin("load");
  if (!bulk) {
    const size_t total = static_cast<size_t>(kPointRate * options.seconds);
    const OpenLoopStats stats = RunOpenLoop(total, kPointRate, senders, [&](size_t i, int t) {
      Recorder::Scope span(rec, "net.predict", load);
      return PostAndCheck(*stack->clients[static_cast<size_t>(t)], bodies[i % bodies.size()]);
    });
    latency_ms = stats.latency_ms;
    for (size_t i = 0; i < total; ++i) sent_s.push_back(static_cast<double>(i) / kPointRate);
    late_ms = stats.late_ms;
    sent = total;
    ok_requests = total - stats.failed;
    elapsed_s = stats.elapsed_s;
  } else {
    std::vector<std::vector<double>> per_sender(static_cast<size_t>(senders));
    std::vector<std::vector<double>> sent_at(static_cast<size_t>(senders));
    std::vector<std::vector<double>> done(static_cast<size_t>(senders));
    std::vector<size_t> failed(static_cast<size_t>(senders), 0);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> callers;
    for (int t = 0; t < senders; ++t) {
      callers.emplace_back([&, t] {
        const size_t s = static_cast<size_t>(t);
        for (size_t b = s; SecondsSince(start) < options.seconds; b += per_sender.size()) {
          const Clock::time_point t0 = Clock::now();
          sent_at[s].push_back(SecondsSince(start));
          Recorder::Scope span(rec, "net.predict", load);
          const bool ok = PostAndCheck(*stack->clients[s], bodies[b % bodies.size()]);
          per_sender[s].push_back(ok ? 1e3 * SecondsSince(t0)
                                     : std::numeric_limits<double>::infinity());
          if (ok) done[s].push_back(SecondsSince(start));
          if (!ok) ++failed[s];
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    elapsed_s = SecondsSince(start);
    for (size_t s = 0; s < per_sender.size(); ++s) {
      latency_ms.insert(latency_ms.end(), per_sender[s].begin(), per_sender[s].end());
      sent_s.insert(sent_s.end(), sent_at[s].begin(), sent_at[s].end());
      done_s.insert(done_s.end(), done[s].begin(), done[s].end());
      sent += per_sender[s].size();
      ok_requests += per_sender[s].size() - failed[s];
    }
  }
  rec.End(load);
  // --- End of the timed phase. ---
  result.Add("peak_rss_mb", PeakRssMb(), "MB");

  result.attempted += sent;
  result.failed += sent - ok_requests;
  if (sent != ok_requests) {
    std::fprintf(stderr, "perfbench: FAILED %zu of %zu /predict requests\n",
                 sent - ok_requests, sent);
  }
  const Summary latency = Summarize(latency_ms);
  // The median of the 1 s windows' medians: a burst of interference from
  // outside the process moves a few windows, not the figure.
  const double p50_ms = MedianWindowMedian(sent_s, latency_ms, elapsed_s, 1.0);
  const size_t rows_per_request = bulk ? kBulkRows : kPointRows;
  std::printf("requests: %zu sent, %zu correct; latency p50 %.4f ms (median of 1 s "
              "windows %.4f ms), p99 %.4f ms, p%.4g %.4f ms over %zu samples\n",
              sent, ok_requests, latency.p50, p50_ms, latency.p99, 100.0 * latency.top_q,
              latency.top, latency.count);
  result.Add("wall_s", elapsed_s, "s");
  result.Add("latency_p50_ms", p50_ms, "ms");
  result.Add("bench.latency_p99_ms", latency.p99, "ms");
  // The open loop offers a fixed rate, so every 1 s window of a healthy
  // serve_point run holds exactly 2000 rows: report the whole phase there.
  result.Add("rows_per_s",
             bulk ? static_cast<double>(rows_per_request) *
                        MedianWindowRate(done_s, elapsed_s, 1.0)
                  : static_cast<double>(ok_requests * rows_per_request) / elapsed_s,
             "rows/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("bench.latency_samples", static_cast<double>(latency.count), "count");
  if (!bulk) {
    const Summary late = Summarize(late_ms);
    std::printf("sender lateness: p50 %.4f ms, p99 %.4f ms over %zu samples\n",
                late.p50, late.p99, late.count);
    result.Add("bench.send_late_p99_ms", late.p99, "ms");
  }

  if (options.trace) {
    const ShardTotals after = ReadStatusz(probe, result);
    const double completed = after.completed - before.completed;
    const double batches = after.batches - before.batches;
    const double batch_mean = batches > 0.0 ? completed / batches : 0.0;
    result.Add("serve.queue_wait_p50_us", after.queue_wait_p50_us, "us");
    result.Add("serve.queue_wait_p99_us", after.queue_wait_p99_us, "us");
    result.Add("serve.batch_size_mean", batch_mean, "rows");
    result.Add("serve.batches_run", batches, "count");
    result.Add("serve.submits_per_request",
               ok_requests > 0 ? completed / static_cast<double>(ok_requests) : 0.0, "ratio");
    result.Add("serve.shed", after.shed - before.shed, "count");
    result.Add("serve.rejected", after.rejected - before.rejected, "count");

    auto rpcz = probe.Get("/rpcz");
    auto doc = rpcz.ok() && rpcz->status_code == 200
                   ? fab::net::ParseJson(rpcz->body)
                   : fab::Result<fab::net::JsonValue>(fab::Status::Internal("no /rpcz"));
    const fab::net::JsonValue* hist = doc.ok() ? PredictRpcz(*doc) : nullptr;
    result.Check(hist != nullptr, "GET /rpcz has POST /predict latency");
    result.Add("net.predict_server_p50_us", Number(hist, "p50"), "us");
    result.Add("net.predict_server_p99_us", Number(hist, "p99"), "us");

    std::vector<double> parse_us;
    for (size_t i = 0; i < std::max<size_t>(bodies.size(), 200); ++i) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = fab::net::ParseJson(bodies[i % bodies.size()].json).ok();
      parse_us.push_back(1e6 * SecondsSince(t0));
      if (!ok) result.Check(false, "net::ParseJson of a request body");
    }
    result.Add("net.parse_us", Median(parse_us), "us");

    const size_t kernel_rows =
        std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
    for (const char* model : {"rf", "xgb", "mlp"}) {
      Recorder::Scope span(rec, std::string("serve.kernel.") + model);
      result.Add(std::string("serve.kernel_ns_per_row.") + model,
                 KernelNsPerRow(*stack, bodies, model, kernel_rows, result), "ns");
    }
    AddProgramCounters(result);
  }
  return result;
}

}  // namespace perfbench
