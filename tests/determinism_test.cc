// Proves the pipeline's thread-count-invariance guarantee: PFI, SHAP,
// a full FRA run (from the top level and from inside a pool task),
// forest and GBDT training, feature binning, an improvement-style CV fold
// and the exported model snapshots all produce BITWISE-identical output
// at shared-pool widths 1, 2 and 8. Every assertion below is EXPECT_EQ on
// doubles or bytes, deliberately not approximate — parallel units derive
// their RNG streams from (seed, unit_index) and reduce in index order, so
// nothing may drift.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/experiments.h"
#include "core/fra.h"
#include "explain/permutation.h"
#include "explain/shap.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/model_selection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fab {
namespace {

const int kThreadCounts[] = {1, 2, 8};

ml::Dataset MakeDataset(size_t rows, size_t n_signal, size_t n_noise,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(n_signal + n_noise,
                                        std::vector<double>(rows));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  std::vector<double> y(rows, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < n_signal; ++j) {
      y[i] += (1.0 + 0.3 * static_cast<double>(j)) * cols[j][i];
    }
    y[i] += 0.25 * rng.Normal();
  }
  ml::Dataset d;
  d.x = *ml::ColMatrix::FromColumns(std::move(cols));
  d.y = std::move(y);
  for (size_t j = 0; j < n_signal + n_noise; ++j) {
    d.feature_names.push_back("f" + std::to_string(j));
  }
  return d;
}

/// Runs `compute()` once per thread count and asserts all runs are
/// bitwise equal to the first.
template <typename Fn>
void ExpectInvariantAcrossThreadCounts(const Fn& compute) {
  util::SetSharedPoolThreads(kThreadCounts[0]);
  const auto baseline = compute();
  for (size_t k = 1; k < std::size(kThreadCounts); ++k) {
    util::SetSharedPoolThreads(kThreadCounts[k]);
    const auto run = compute();
    ASSERT_EQ(run.size(), baseline.size()) << "threads=" << kThreadCounts[k];
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i], baseline[i])
          << "slot " << i << " differs at threads=" << kThreadCounts[k];
    }
  }
  util::SetSharedPoolThreads(0);
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = MakeDataset(240, 3, 9, 101);
    valid_ = MakeDataset(120, 3, 9, 103);
  }

  ml::ForestParams SmallForest() const {
    ml::ForestParams params;
    params.n_trees = 12;
    params.max_depth = 5;
    params.max_features = 0.5;
    params.seed = 19;
    return params;
  }

  static core::FraOptions SmallFra() {
    core::FraOptions options;
    options.target_size = 6;
    options.rf.n_trees = 10;
    options.rf.max_depth = 5;
    options.rf.max_features = 0.5;
    options.xgb.n_rounds = 15;
    options.xgb.max_depth = 3;
    options.pfi_repeats = 1;
    options.seed = 909;
    return options;
  }

  static void ExpectSameFra(const core::FraResult& run,
                            const core::FraResult& baseline, int threads) {
    EXPECT_EQ(run.selected, baseline.selected)
        << "ranking differs at threads=" << threads;
    ASSERT_EQ(run.selected_scores.size(), baseline.selected_scores.size());
    for (size_t i = 0; i < run.selected_scores.size(); ++i) {
      EXPECT_EQ(run.selected_scores[i], baseline.selected_scores[i]);
    }
    ASSERT_EQ(run.history.size(), baseline.history.size());
    for (size_t i = 0; i < run.history.size(); ++i) {
      EXPECT_EQ(run.history[i].features_removed,
                baseline.history[i].features_removed);
    }
  }

  ml::Dataset train_, valid_;
};

TEST_F(DeterminismTest, ForestFitBitwiseInvariant) {
  ExpectInvariantAcrossThreadCounts([&] {
    ml::RandomForestRegressor rf(SmallForest());
    EXPECT_TRUE(rf.Fit(train_.x, train_.y).ok());
    std::vector<double> out = rf.Predict(valid_.x);
    const std::vector<double> imp = rf.FeatureImportances();
    out.insert(out.end(), imp.begin(), imp.end());
    return out;
  });
}

TEST_F(DeterminismTest, PermutationImportanceBitwiseInvariant) {
  ml::RandomForestRegressor rf(SmallForest());
  ASSERT_TRUE(rf.Fit(train_.x, train_.y).ok());
  ExpectInvariantAcrossThreadCounts([&] {
    explain::PermutationOptions options;
    options.n_repeats = 2;
    options.seed = 55;
    const auto imp = explain::PermutationImportance(rf, valid_, options);
    EXPECT_TRUE(imp.ok());
    return *imp;
  });
}

TEST_F(DeterminismTest, MeanAbsShapBitwiseInvariant) {
  ml::RandomForestRegressor rf(SmallForest());
  ASSERT_TRUE(rf.Fit(train_.x, train_.y).ok());
  ml::GbdtParams xgb_params;
  xgb_params.n_rounds = 20;
  xgb_params.max_depth = 3;
  xgb_params.seed = 23;
  ml::GbdtRegressor xgb(xgb_params);
  ASSERT_TRUE(xgb.Fit(train_.x, train_.y).ok());
  ExpectInvariantAcrossThreadCounts([&] {
    const auto rf_shap = explain::MeanAbsShapForest(rf, valid_.x);
    const auto xgb_shap = explain::MeanAbsShapGbdt(xgb, valid_.x);
    EXPECT_TRUE(rf_shap.ok() && xgb_shap.ok());
    std::vector<double> out = *rf_shap;
    out.insert(out.end(), xgb_shap->begin(), xgb_shap->end());
    return out;
  });
}

TEST_F(DeterminismTest, ImprovementCvFoldBitwiseInvariant) {
  // The improvement experiment's measurement unit: shuffled KFold +
  // cross-validated MSE of a cloned model per fold.
  ExpectInvariantAcrossThreadCounts([&] {
    const auto folds =
        ml::KFold(train_.num_rows(), 4, /*shuffle=*/true, 0xC0FFEEull);
    EXPECT_TRUE(folds.ok());
    ml::RandomForestRegressor rf(SmallForest());
    const auto rf_mse = ml::CrossValMse(rf, train_, *folds);
    EXPECT_TRUE(rf_mse.ok());
    ml::GbdtParams xgb_params;
    xgb_params.n_rounds = 15;
    xgb_params.max_depth = 3;
    ml::GbdtRegressor xgb(xgb_params);
    const auto xgb_mse = ml::CrossValMse(xgb, train_, *folds);
    EXPECT_TRUE(xgb_mse.ok());
    return std::vector<double>{*rf_mse, *xgb_mse};
  });
}

TEST_F(DeterminismTest, GbdtFitBitwiseInvariant) {
  ExpectInvariantAcrossThreadCounts([&] {
    ml::GbdtParams params;
    params.n_rounds = 20;
    params.max_depth = 3;
    params.subsample = 0.8;
    params.colsample = 0.7;
    params.seed = 23;
    ml::GbdtRegressor xgb(params);
    EXPECT_TRUE(xgb.Fit(train_.x, train_.y).ok());
    std::vector<double> out = xgb.Predict(valid_.x);
    const std::vector<double> imp = xgb.FeatureImportances();
    out.insert(out.end(), imp.begin(), imp.end());
    return out;
  });
}

TEST_F(DeterminismTest, BinnedMatrixBuildBitwiseInvariant) {
  ExpectInvariantAcrossThreadCounts([&] {
    const auto binned = ml::BinnedMatrix::Build(train_.x);
    EXPECT_TRUE(binned.ok());
    std::vector<double> out;
    for (size_t c = 0; c < binned->cols(); ++c) {
      out.push_back(binned->num_bins(c));
      for (int b = 0; b < binned->num_bins(c); ++b) {
        out.push_back(binned->upper_edge(c, b));
      }
      for (uint8_t code : binned->codes(c)) out.push_back(code);
    }
    return out;
  });
}

TEST_F(DeterminismTest, FraBitwiseInvariant) {
  // A full (small) FRA run: iterations of four importance fits plus the
  // final consensus ranking — the pipeline's hottest composite path.
  const core::FraOptions options = SmallFra();
  util::SetSharedPoolThreads(1);
  const auto baseline = core::RunFra(train_, options);
  ASSERT_TRUE(baseline.ok());
  for (size_t k = 1; k < std::size(kThreadCounts); ++k) {
    util::SetSharedPoolThreads(kThreadCounts[k]);
    const auto run = core::RunFra(train_, options);
    ASSERT_TRUE(run.ok());
    ExpectSameFra(*run, *baseline, kThreadCounts[k]);
  }
  util::SetSharedPoolThreads(0);
}

TEST_F(DeterminismTest, FraInsidePoolTaskBitwiseInvariant) {
  // The nested path: FRA issued from a pool task, as PrecomputeAll's
  // scenario fan-out runs it, so every ParallelFor inside it fans out
  // from a worker. Compared against a top-level run at width 1.
  const core::FraOptions options = SmallFra();
  util::SetSharedPoolThreads(1);
  const auto baseline = core::RunFra(train_, options);
  ASSERT_TRUE(baseline.ok());
  for (int threads : kThreadCounts) {
    util::SetSharedPoolThreads(threads);
    const auto run = util::SharedPool()
                         ->Submit([&] { return core::RunFra(train_, options); })
                         .get();
    ASSERT_TRUE(run.ok());
    ExpectSameFra(*run, *baseline, threads);
  }
  util::SetSharedPoolThreads(0);
}

TEST(ExportDeterminismTest, ExportModelsSnapshotBytesInvariant) {
  // The rf, xgb and mlp snapshots ExportModels fits side by side must be
  // byte-identical at every width. The scenario and a small final vector
  // (one FRA iteration, top 12 of FRA and SHAP) are computed by the first
  // run and reused; only the fits are redone.
  // The pid keeps this test and its `_tsan` twin, which ctest -j runs at
  // the same time, out of each other's caches.
  const std::string cache_dir = ::testing::TempDir() +
                                "fab_determinism_export_" +
                                std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);
  core::ExperimentConfig config;
  config.seed = 11;
  config.fast = true;
  config.cache_dir = cache_dir;
  config.manage_shared_pool = false;
  config.fra.rf.n_trees = 8;
  config.fra.rf.max_depth = 5;
  config.fra.rf.max_features = 0.4;
  config.fra.xgb.n_rounds = 12;
  config.fra.xgb.max_depth = 3;
  config.fra.pfi_repeats = 1;
  config.fra.max_iterations = 1;
  config.feature_vector.rf = config.fra.rf;
  config.feature_vector.shap_row_limit = 40;
  config.feature_vector.union_top_k = 12;
  config.scoring_rf = config.fra.rf;
  config.improvement.xgb = config.fra.xgb;
  config.serving_mlp.hidden = {8, 4};
  config.serving_mlp.epochs = 10;
  core::Experiments ex(config);
  ExpectInvariantAcrossThreadCounts([&] {
    std::filesystem::remove_all(ex.ModelDir());
    const auto paths = ex.ExportModels(core::StudyPeriod::k2019, 7);
    EXPECT_TRUE(paths.ok()) << paths.status().ToString();
    std::vector<std::string> bytes;
    for (const std::string& path : paths.ok() ? *paths
                                              : std::vector<std::string>{}) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream content;
      content << in.rdbuf();
      bytes.push_back(content.str());
    }
    EXPECT_EQ(bytes.size(), 3u);
    return bytes;
  });
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace fab
