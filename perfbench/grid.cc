// grid_serial and grid_fanout: the paper's scenario grid through
// core::Experiments, from an empty cache, under the FAB_FAST profile.
//
// Set-up makes the grid's input: a fresh cache directory, the
// Experiments (which sizes the shared pool) and its simulated market with
// technical indicators (Experiments::Market). The timed grid starts from
// there.
//
// --seed derives every model seed of the pipeline (FRA, SHAP, scoring,
// improvement, export), exactly as FAB_SEED does. The simulated market is
// the repo's default one (seed 42) on every run, standing in for the
// paper's single real-world dataset: FRA's iteration count follows the
// data, so a per-seed market would make run time swing by a third from
// seed to seed and bury any regression.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset_builder.h"
#include "core/experiments.h"
#include "core/feature_vector.h"
#include "explain/permutation.h"
#include "explain/shap.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "net/json.h"
#include "serve/snapshot.h"
#include "sim/catalog.h"
#include "sim/market_sim.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using fab::core::ModelKind;
using fab::core::StudyPeriod;

constexpr uint64_t kMarketSeed = 42;
const std::vector<int> kWindows = {1, 7, 30, 90, 180};
/// Setting up takes 0.05 to 0.1 s and single set-ups vary by half, so it
/// is repeated; setup_s is the median.
constexpr int kSetupRepeats = 15;

fab::core::ExperimentConfig GridConfig(uint64_t seed, const std::string& cache_dir) {
  setenv("FAB_FAST", "1", 1);
  setenv("FAB_SEED", std::to_string(seed).c_str(), 1);
  fab::core::ExperimentConfig config = fab::core::ExperimentConfig::FromEnv();
  config.seed = kMarketSeed;
  config.cache_dir = cache_dir;
  config.num_threads = 0;  // pool as wide as the host
  return config;
}

std::string Tag(StudyPeriod period, int window) {
  return std::string(fab::core::PeriodName(period)) + "_" + std::to_string(window);
}

std::vector<std::string> Head(std::vector<std::string> names, size_t k) {
  if (names.size() > k) names.resize(k);
  return names;
}

/// FRA top-k ∪ SHAP top-k, FRA's names first, each name once.
std::vector<std::string> ExpectedUnion(const std::vector<std::string>& fra,
                                       const std::vector<std::string>& shap,
                                       size_t k) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto* list : {&fra, &shap}) {
    for (const std::string& name : Head(*list, k)) {
      if (seen.insert(name).second) out.push_back(name);
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) out += name + ",";
  return out;
}

bool PositiveFinite(double v) { return std::isfinite(v) && v > 0.0; }

/// One grid's digests, keyed "fvec/<period>_<window>" and
/// "imp/<period>_<window>_<rf|xgb>".
using Digests = std::map<std::string, std::string>;

/// A fresh, empty cache directory inside the work dir, and the pipeline
/// over it. Removes the directory when destroyed.
struct GridSetup {
  std::string cache_dir;
  std::unique_ptr<fab::core::Experiments> experiments;

  GridSetup(const Options& options, int index) {
    cache_dir = options.work_dir + "/cache_" + options.workload + "_" +
                std::to_string(index);
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    experiments = std::make_unique<fab::core::Experiments>(
        GridConfig(options.seed, cache_dir));
  }
  ~GridSetup() {
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
  }
  GridSetup(const GridSetup&) = delete;
  GridSetup& operator=(const GridSetup&) = delete;
};

/// Checks one scenario's FRA result and final vector; records the digest.
void CheckFinalVector(fab::core::Experiments& ex, StudyPeriod period, int window,
                      RunResult& result, Digests& digests) {
  const std::string tag = Tag(period, window);
  auto fra = ex.Fra(period, window);
  auto fvec = ex.FinalVector(period, window);
  const size_t k = ex.config().feature_vector.union_top_k;
  const bool ok = fra.ok() && fvec.ok() && !fra->selected.empty() &&
                  fra->selected.size() <= ex.config().fra.target_size &&
                  fvec->fra_ranked == fra->selected &&
                  fvec->features == ExpectedUnion(fra->selected, fvec->shap_ranked, k);
  result.Check(ok, "final vector " + tag +
                       " (stage OK, FRA <= target size, final = FRA ∪ SHAP top-k)");
  if (fvec.ok()) digests["fvec/" + tag] = Hex64(Fnv1a(Join(fvec->features)));
}

std::string ImprovementText(const fab::core::ImprovementResult& imp) {
  std::string text = "diverse=" + HexFloat(imp.diverse_mse) + ";";
  for (const auto& c : imp.per_category) {
    text += std::string(fab::sim::CategoryKey(c.category)) + ":" +
            HexFloat(c.single_mse) + "," + HexFloat(c.diverse_mse) + "," +
            HexFloat(c.improvement_pct) + ";";
  }
  return text;
}

/// The stage-by-stage chain the experiment binaries drive, over 2019.
void RunSerialGrid(fab::core::Experiments& ex, Recorder& rec, int root,
                   RunResult& result, Digests& digests) {
  const StudyPeriod period = StudyPeriod::k2019;
  for (int w : kWindows) {
    Recorder::Scope span(rec, "core.scenario", root);
    result.Check(ex.Scenario(period, w).ok(), "Experiments::Scenario " + Tag(period, w));
  }
  std::map<int, fab::core::FraResult> fra;
  for (int w : kWindows) {
    Recorder::Scope span(rec, "core.fra", root);
    auto r = ex.Fra(period, w);
    result.Check(r.ok() && !r->selected.empty() &&
                     r->selected.size() <= ex.config().fra.target_size,
                 "Experiments::Fra " + Tag(period, w) + " (OK, <= target size)");
    if (r.ok()) fra[w] = std::move(*r);
  }
  std::map<int, fab::core::FinalFeatureVector> fvec;
  for (int w : kWindows) {
    Recorder::Scope span(rec, "core.final_vector", root);
    auto r = ex.FinalVector(period, w);
    const size_t k = ex.config().feature_vector.union_top_k;
    result.Check(r.ok() && fra.count(w) != 0 &&
                     r->features == ExpectedUnion(fra[w].selected, r->shap_ranked, k),
                 "Experiments::FinalVector " + Tag(period, w) + " (final = FRA ∪ SHAP top-k)");
    if (r.ok()) {
      digests["fvec/" + Tag(period, w)] = Hex64(Fnv1a(Join(r->features)));
      fvec[w] = std::move(*r);
    }
  }
  for (int w : kWindows) {
    Recorder::Scope span(rec, "core.scored_vector", root);
    auto r = ex.ScoredVector(period, w);
    bool ok = r.ok() && fvec.count(w) != 0 && r->features == fvec[w].features &&
              r->importance.size() == r->features.size();
    for (size_t i = 0; ok && i < r->importance.size(); ++i) {
      ok = std::isfinite(r->importance[i]);
    }
    result.Check(ok, "Experiments::ScoredVector " + Tag(period, w));
  }
  for (int w : kWindows) {
    for (ModelKind kind : {ModelKind::kRandomForest, ModelKind::kGbdt}) {
      const std::string name =
          Tag(period, w) + (kind == ModelKind::kRandomForest ? "_rf" : "_xgb");
      Recorder::Scope span(rec, "core.improvement", root);
      auto r = ex.Improvement(period, w, kind);
      bool ok = r.ok() && PositiveFinite(r->diverse_mse) && !r->per_category.empty();
      for (size_t i = 0; ok && i < r->per_category.size(); ++i) {
        ok = PositiveFinite(r->per_category[i].single_mse) &&
             PositiveFinite(r->per_category[i].diverse_mse);
      }
      result.Check(ok, "Experiments::Improvement " + name + " (MSEs finite, > 0)");
      if (r.ok()) digests["imp/" + name] = Hex64(Fnv1a(ImprovementText(*r)));
    }
  }
  for (int w : kWindows) {
    Recorder::Scope span(rec, "core.export", root);
    auto r = ex.ExportModels(period, w);
    bool ok = r.ok() && r->size() == 3;
    for (size_t i = 0; ok && i < r->size(); ++i) {
      ok = fab::serve::SnapshotCodec::Probe((*r)[i]).ok();
    }
    result.Check(ok, "Experiments::ExportModels " + Tag(period, w));
  }
}

/// The sweep's entry point: every scenario's FRA + SHAP in one call.
void RunFanoutGrid(fab::core::Experiments& ex, Recorder& rec, int root,
                   RunResult& result) {
  Recorder::Scope span(rec, "core.precompute", root);
  const fab::Status status =
      ex.PrecomputeAll({StudyPeriod::k2017, StudyPeriod::k2019}, kWindows);
  result.Check(status.ok(), "Experiments::PrecomputeAll: " + status.ToString());
}

/// Compares `digests` with the pinned ones for this seed, if any.
void CheckGolden(const Options& options, const Digests& digests, RunResult& result) {
  std::map<std::pair<uint64_t, std::string>, std::string> golden;
  result.Check(LoadGolden(options.golden, &golden), "read " + options.golden);
  bool pinned = false;
  for (const auto& [key, hex] : golden) pinned = pinned || key.first == options.seed;
  for (const auto& [key, hex] : digests) {
    std::printf("digest %llu %s %s\n", static_cast<unsigned long long>(options.seed),
                key.c_str(), hex.c_str());
    if (!pinned) continue;
    auto it = golden.find({options.seed, key});
    result.Check(it != golden.end() && it->second == hex,
                 "digest " + key + " matches the pinned value for this seed");
  }
  if (!pinned) {
    std::printf("digests: seed %llu is not pinned; structural checks only\n",
                static_cast<unsigned long long>(options.seed));
  }
}

/// Durations of the program's own "core/scenario" spans (FAB_TRACE) in a
/// Chrome trace file, matched B/E per thread.
std::vector<double> ScenarioSpanSeconds(const std::string& path) {
  std::vector<double> out;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = fab::net::ParseJson(text.str());
  if (!doc.ok()) return out;
  const fab::net::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  std::map<double, std::vector<std::pair<bool, double>>> stacks;  // tid -> (is_scenario, ts)
  for (const fab::net::JsonValue& e : events->array()) {
    const fab::net::JsonValue* name = e.Find("name");
    const fab::net::JsonValue* ph = e.Find("ph");
    const fab::net::JsonValue* ts = e.Find("ts");
    const fab::net::JsonValue* tid = e.Find("tid");
    if (name == nullptr || ph == nullptr || ts == nullptr || tid == nullptr) continue;
    auto& stack = stacks[tid->number()];
    if (ph->str() == "B") {
      stack.emplace_back(name->str() == "core/scenario", ts->number());
    } else if (ph->str() == "E" && !stack.empty()) {
      if (stack.back().first) out.push_back(1e-6 * (ts->number() - stack.back().second));
      stack.pop_back();
    }
  }
  return out;
}

/// One call each into sim, ta, ml and explain on the 2019_30 dataset.
void RunLayerProbes(fab::core::Experiments& ex, Recorder& rec, RunResult& result) {
  const fab::core::ExperimentConfig& config = ex.config();
  {
    fab::sim::MarketSimConfig sim_config;
    sim_config.seed = config.seed;
    const Clock::time_point t0 = Clock::now();
    auto market = [&] {
      Recorder::Scope span(rec, "sim.simulate");
      return fab::sim::SimulateMarket(sim_config);
    }();
    result.Add("sim.simulate_s", SecondsSince(t0), "s");
    result.Check(market.ok(), "probe sim::SimulateMarket");
    if (market.ok()) {
      const Clock::time_point t1 = Clock::now();
      Recorder::Scope span(rec, "ta.indicators");
      result.Check(fab::core::AddTechnicalIndicators(&*market).ok(),
                   "probe core::AddTechnicalIndicators");
      result.Add("ta.indicators_s", SecondsSince(t1), "s");
    }
  }
  auto scenario = ex.Scenario(StudyPeriod::k2019, 30);
  result.Check(scenario.ok(), "probe dataset 2019_30");
  if (!scenario.ok()) return;
  const fab::ml::Dataset& data = (*scenario)->data;

  fab::ml::RandomForestRegressor rf(config.fra.rf);
  Clock::time_point t0 = Clock::now();
  {
    Recorder::Scope span(rec, "ml.rf_fit");
    result.Check(rf.Fit(data.x, data.y).ok(), "probe RF fit");
  }
  result.Add("ml.rf_fit_s", SecondsSince(t0), "s");

  fab::ml::GbdtRegressor gbdt(config.fra.xgb);
  t0 = Clock::now();
  {
    Recorder::Scope span(rec, "ml.gbdt_fit");
    result.Check(gbdt.Fit(data.x, data.y).ok(), "probe GBDT fit");
  }
  result.Add("ml.gbdt_fit_s", SecondsSince(t0), "s");

  // PFI on a holdout the size FRA uses.
  const size_t n = data.num_rows();
  const size_t holdout = static_cast<size_t>(config.fra.pfi_holdout_fraction *
                                             static_cast<double>(n));
  std::vector<int> rows;
  for (size_t i = n - holdout; i < n; ++i) rows.push_back(static_cast<int>(i));
  const fab::ml::Dataset valid = data.TakeRows(rows);
  fab::explain::PermutationOptions pfi;
  pfi.n_repeats = config.fra.pfi_repeats;
  pfi.seed = config.fra.seed;
  t0 = Clock::now();
  {
    Recorder::Scope span(rec, "explain.pfi");
    result.Check(fab::explain::PermutationImportance(rf, valid, pfi).ok(), "probe PFI");
  }
  result.Add("explain.pfi_s", SecondsSince(t0), "s");

  // SHAP over the evenly spaced rows FinalVector uses.
  const size_t limit = std::min(config.feature_vector.shap_row_limit, n);
  rows.clear();
  for (size_t k = 0; k < limit; ++k) rows.push_back(static_cast<int>(k * n / limit));
  const fab::ml::ColMatrix sample = data.x.TakeRows(rows);
  t0 = Clock::now();
  {
    Recorder::Scope span(rec, "explain.shap");
    result.Check(fab::explain::MeanAbsShapForest(rf, sample).ok(), "probe SHAP");
  }
  result.Add("explain.shap_s", SecondsSince(t0), "s");
}

/// Stage times per grid: the spans of all `grids` grids, averaged.
void AddStageMetrics(const Recorder& rec, size_t grids, RunResult& result) {
  auto per_grid = [&](const std::string& span) {
    return rec.TotalSeconds(span) / static_cast<double>(grids);
  };
  auto cores = [&](const std::string& span) {
    const double wall = rec.TotalSeconds(span);
    return wall > 0.0 ? rec.TotalCpuSeconds(span) / wall : 0.0;
  };
  result.Add("core.scenario_s", per_grid("core.scenario"), "s");
  result.Add("core.fra_s", per_grid("core.fra"), "s");
  result.Add("core.fra_cores", cores("core.fra"), "cores");
  result.Add("core.final_vector_s", per_grid("core.final_vector"), "s");
  result.Add("core.scored_vector_s", per_grid("core.scored_vector"), "s");
  result.Add("core.improvement_s", per_grid("core.improvement"), "s");
  result.Add("core.improvement_cores", cores("core.improvement"), "cores");
  result.Add("core.export_s", per_grid("core.export"), "s");
  result.Add("core.export_cores", cores("core.export"), "cores");
  result.Add("core.precompute_s", per_grid("core.precompute"), "s");
  result.Add("core.precompute_cores", cores("core.precompute"), "cores");

  // Share of each timed grid that its stage spans cover (self time of
  // the "grid" span is what no stage accounts for).
  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = SelfTimes(spans);
  double grid = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "grid") continue;
    grid += spans[i].duration();
    uncovered += self[i];
  }
  result.Add("bench.stage_coverage", grid > 0.0 ? 1.0 - uncovered / grid : 0.0, "fraction");
}

}  // namespace

void AddProgramCounters(RunResult& result) {
  auto count = [](const char* name) {
    return static_cast<double>(fab::obs::GetCounter(name).Value());
  };
  result.Add("ml.rf_fits", count("ml/rf_fits"), "count");
  result.Add("ml.gbdt_fits", count("ml/gbdt_fits"), "count");
  result.Add("util.pool_tasks", count("threadpool/tasks_enqueued"), "count");
  result.Add("util.pool_task_p50_us",
             fab::obs::GetHistogram("threadpool/task_us").Percentile(0.5), "us");
}

RunResult RunGrid(const Options& options, Recorder& rec, bool fanout) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> market_s;
  double rows = 0.0;
  Digests first_digests;
  const Clock::time_point run_start = Clock::now();
  // At least one grid; more while --seconds has not run out.
  for (int rep = 0; rep == 0 || SecondsSince(run_start) < options.seconds; ++rep) {
    std::unique_ptr<GridSetup> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      Recorder::Scope span(rec, "setup");
      setup.reset();
      setup = std::make_unique<GridSetup>(options, i);
      const Clock::time_point t1 = Clock::now();
      {
        Recorder::Scope market(rec, "core.market", span.id());
        result.Check(setup->experiments->Market().ok(), "Experiments::Market");
      }
      market_s.push_back(SecondsSince(t1));
      setup_s.push_back(SecondsSince(t0));
    }
    fab::core::Experiments& ex = *setup->experiments;

    // Program-side spans only on a traced fan-out run, to see how evenly
    // the scenarios split across the pool.
    const bool program_trace = options.trace && fanout && rep == 0;
    if (program_trace) fab::obs::StartTracing();
    Digests digests;
    const Clock::time_point t0 = Clock::now();
    {
      Recorder::Scope grid(rec, "grid");
      if (fanout) {
        RunFanoutGrid(ex, rec, grid.id(), result);
      } else {
        RunSerialGrid(ex, rec, grid.id(), result, digests);
      }
    }
    wall_s.push_back(SecondsSince(t0));
    if (program_trace) fab::obs::StopTracing();

    rows = 0.0;
    for (StudyPeriod period : {StudyPeriod::k2017, StudyPeriod::k2019}) {
      if (!fanout && period == StudyPeriod::k2017) continue;
      for (int w : kWindows) {
        if (fanout) CheckFinalVector(ex, period, w, result, digests);
        auto scenario = ex.Scenario(period, w);
        if (scenario.ok()) rows += static_cast<double>((*scenario)->data.num_rows());
      }
    }
    if (rep == 0) {
      // Through the first grid only: a later grid reuses freed but
      // retained heap and lifts the peak by about 8%, and how many grids
      // fit in --seconds depends on how fast the host is that day.
      result.Add("peak_rss_mb", PeakRssMb(), "MB");
      CheckGolden(options, digests, result);
      first_digests = digests;
    } else {
      result.Check(digests == first_digests, "digests equal across repeats");
    }

    if (options.trace && rep == 0) {
      AddProgramCounters(result);  // before the probes, which fit models too
      if (program_trace) {
        const std::string path = options.work_dir + "/program_trace_" +
                                 options.workload + ".json";
        result.Check(fab::obs::WriteTrace(path).ok(), "write program trace");
        const std::vector<double> scenarios = ScenarioSpanSeconds(path);
        result.Check(scenarios.size() == 2 * kWindows.size(),
                     "program trace has one core/scenario span per scenario");
        double sum = 0.0;
        double max = 0.0;
        for (double s : scenarios) {
          sum += s;
          max = std::max(max, s);
        }
        result.Add("core.scenario_max_over_mean",
                   scenarios.empty() ? 0.0 : max / (sum / static_cast<double>(scenarios.size())),
                   "ratio");
      }
      RunLayerProbes(ex, rec, result);
    }
  }

  const Summary grid = Summarize(wall_s);
  std::vector<double> grid_ms;
  for (double s : wall_s) grid_ms.push_back(1e3 * s);
  const Summary latency = Summarize(grid_ms);
  std::printf("grids run: %zu (wall_s per grid = median of %zu)\n", grid.count, grid.count);
  result.Add("wall_s", grid.p50, "s");
  result.Add("latency_p50_ms", latency.p50, "ms");
  result.Add("bench.latency_p99_ms", latency.p99, "ms");
  result.Add("rows_per_s", rows / grid.p50, "rows/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("bench.latency_samples", static_cast<double>(latency.count), "count");
  if (options.trace) {
    result.Add("core.market_s", Median(market_s), "s");
    AddStageMetrics(rec, wall_s.size(), result);
  }
  return result;
}

}  // namespace perfbench
