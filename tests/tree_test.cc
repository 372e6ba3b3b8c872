#include "ml/tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace fab::ml {
namespace {

/// Fits a plain (unweighted) regression tree on (x, y).
RegressionTree FitTree(const ColMatrix& x, const std::vector<double>& y,
                       TreeParams params) {
  auto binned = BinnedMatrix::Build(x);
  std::vector<double> g(y.size()), h(y.size(), 1.0);
  for (size_t i = 0; i < y.size(); ++i) g[i] = -y[i];
  RegressionTree tree;
  Rng rng(3);
  EXPECT_TRUE(tree.Fit(*binned, g, h, params, &rng).ok());
  return tree;
}

TEST(TreeTest, RejectsBadInput) {
  auto x = ColMatrix::FromColumns({{1, 2, 3}});
  auto binned = BinnedMatrix::Build(*x);
  RegressionTree tree;
  TreeParams params;
  std::vector<double> short_g{1.0};
  std::vector<double> h(3, 1.0);
  EXPECT_FALSE(tree.Fit(*binned, short_g, h, params, nullptr).ok());
  params.max_depth = 0;
  std::vector<double> g(3, 1.0);
  EXPECT_FALSE(tree.Fit(*binned, g, h, params, nullptr).ok());
  params.max_depth = 3;
  params.colsample_per_node = 0.5;
  EXPECT_FALSE(tree.Fit(*binned, g, h, params, nullptr).ok());  // null rng
}

TEST(TreeTest, ConstantTargetGivesSingleLeaf) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4}});
  const RegressionTree tree = FitTree(*x, {5, 5, 5, 5}, TreeParams{});
  EXPECT_EQ(tree.NumLeaves(), 1);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 5.0);
}

TEST(TreeTest, SplitsOnTheInformativeFeature) {
  Rng rng(7);
  std::vector<double> informative(200), noise(200), y(200);
  for (size_t i = 0; i < 200; ++i) {
    informative[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = informative[i] > 0.0 ? 10.0 : -10.0;
  }
  auto x = ColMatrix::FromColumns({noise, informative});
  TreeParams params;
  params.max_depth = 2;
  const RegressionTree tree = FitTree(*x, y, params);
  ASSERT_TRUE(tree.fitted());
  EXPECT_EQ(tree.nodes()[0].feature, 1);
  EXPECT_NEAR(tree.nodes()[0].threshold, 0.0, 0.3);
  EXPECT_GT(tree.gain_importance()[1], tree.gain_importance()[0]);
}

TEST(TreeTest, PerfectlySeparableDataFitsExactly) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4, 5, 6, 7, 8}});
  const std::vector<double> y{1, 1, 1, 1, 9, 9, 9, 9};
  TreeParams params;
  params.max_depth = 4;
  const RegressionTree tree = FitTree(*x, y, params);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(tree.PredictOne(*x, i), y[i]);
  }
}

TEST(TreeTest, RespectsMaxDepth) {
  Rng rng(9);
  std::vector<double> col(500), y(500);
  for (size_t i = 0; i < 500; ++i) {
    col[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  auto x = ColMatrix::FromColumns({col});
  for (int depth : {1, 2, 4, 6}) {
    TreeParams params;
    params.max_depth = depth;
    params.min_child_weight = 1.0;
    params.min_split_weight = 2.0;
    const RegressionTree tree = FitTree(*x, y, params);
    EXPECT_LE(tree.Depth(), depth);
  }
}

TEST(TreeTest, RespectsMinChildWeight) {
  Rng rng(11);
  std::vector<double> col(300), y(300);
  for (size_t i = 0; i < 300; ++i) {
    col[i] = rng.Normal();
    y[i] = col[i] + 0.1 * rng.Normal();
  }
  auto x = ColMatrix::FromColumns({col});
  TreeParams params;
  params.max_depth = 10;
  params.min_child_weight = 30.0;
  const RegressionTree tree = FitTree(*x, y, params);
  // No leaf can hold fewer than 30 samples: <= 10 leaves for n = 300.
  EXPECT_LE(tree.NumLeaves(), 10);
}

TEST(TreeTest, LeafValuesAreChildMeans) {
  // Single split; leaves must predict the group means exactly.
  auto x = ColMatrix::FromColumns({{1, 2, 10, 11}});
  const std::vector<double> y{3, 5, 21, 23};
  TreeParams params;
  params.max_depth = 1;
  const RegressionTree tree = FitTree(*x, y, params);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 4.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 3), 22.0);
}

TEST(TreeTest, LambdaShrinksLeafValues) {
  auto x = ColMatrix::FromColumns({{1, 2, 10, 11}});
  const std::vector<double> y{4, 4, 20, 20};
  TreeParams reg;
  reg.max_depth = 1;
  reg.lambda = 2.0;
  auto binned = BinnedMatrix::Build(*x);
  std::vector<double> g(4), h(4, 1.0);
  for (size_t i = 0; i < 4; ++i) g[i] = -y[i];
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(*binned, g, h, reg, nullptr).ok());
  // Leaf value = sum(y) / (count + lambda) = 8 / 4 = 2 < unregularized 4.
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 2.0);
}

TEST(TreeTest, GammaPrunesWeakSplits) {
  Rng rng(13);
  std::vector<double> col(200), y(200);
  for (size_t i = 0; i < 200; ++i) {
    col[i] = rng.Normal();
    y[i] = 0.05 * col[i] + rng.Normal();  // weak signal
  }
  auto x = ColMatrix::FromColumns({col});
  TreeParams loose;
  loose.max_depth = 6;
  TreeParams strict = loose;
  strict.gamma = 1e6;
  const RegressionTree tree_loose = FitTree(*x, y, loose);
  const RegressionTree tree_strict = FitTree(*x, y, strict);
  EXPECT_GT(tree_loose.NumLeaves(), 1);
  EXPECT_EQ(tree_strict.NumLeaves(), 1);
}

TEST(TreeTest, ZeroWeightSamplesIgnored) {
  // Out-of-bag samples (g = h = 0) must not affect the fit.
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4, 100}});
  auto binned = BinnedMatrix::Build(*x);
  // The outlier row has zero weight.
  std::vector<double> g{-1, -1, -9, -9, 0};
  std::vector<double> h{1, 1, 1, 1, 0};
  TreeParams params;
  params.max_depth = 2;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(*binned, g, h, params, nullptr).ok());
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 1.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 2), 9.0);
}

TEST(TreeTest, SparseNodeSplitMatchesBruteForce) {
  // 5 in-bag rows against 13 bins, so the root takes the sparse-histogram
  // path. Rows with h = 0 and g != 0 are legal: the first two return bin
  // 100's sums to exactly (0, 0) before a third row lands in it, and the
  // bin must still be scanned once. Rows with g == h == 0 are out of bag
  // and only add bins.
  const std::vector<double> col = {1, 2,   3,   4,   5,   6,   7,  8,
                                   9, 10, 100, 100, 100, 200, 300};
  std::vector<double> g(col.size(), 0.0), h(col.size(), 0.0);
  g[10] = 1.0;
  g[11] = -1.0;
  h[12] = h[13] = h[14] = 1.0;
  g[14] = -10.0;
  auto x = ColMatrix::FromColumns({col});
  auto binned = BinnedMatrix::Build(*x);
  ASSERT_TRUE(binned.ok());
  ASSERT_GT(binned->num_bins(0), 5);
  TreeParams params;
  params.max_depth = 1;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(*binned, g, h, params, nullptr).ok());

  // Brute force: every in-bag value as a "x <= t" threshold.
  auto objective = [](double gs, double hs) {
    return hs > 0.0 ? gs * gs / hs : 0.0;
  };
  double total_g = 0.0, total_h = 0.0;
  for (size_t i = 0; i < col.size(); ++i) {
    total_g += g[i];
    total_h += h[i];
  }
  double best_gain = 0.0;
  double best_threshold = 0.0;
  for (size_t t = 0; t < col.size(); ++t) {
    if (g[t] == 0.0 && h[t] == 0.0) continue;
    double gl = 0.0, hl = 0.0;
    for (size_t i = 0; i < col.size(); ++i) {
      if (col[i] <= col[t]) {
        gl += g[i];
        hl += h[i];
      }
    }
    const double hr = total_h - hl;
    if (hl < params.min_child_weight || hr < params.min_child_weight) continue;
    const double gain = 0.5 * (objective(gl, hl) +
                               objective(total_g - gl, hr) -
                               objective(total_g, total_h));
    if (gain > best_gain) {
      best_gain = gain;
      best_threshold = col[t];
    }
  }
  ASSERT_EQ(best_threshold, 200.0);
  ASSERT_EQ(tree.nodes().size(), 3u);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_EQ(tree.nodes()[0].threshold, best_threshold);
  EXPECT_DOUBLE_EQ(tree.gain_importance()[0], best_gain);
}

TEST(TreeTest, CoverTracksHessianMass) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4}});
  const RegressionTree tree = FitTree(*x, {1, 1, 9, 9}, TreeParams{});
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 4.0);
  // Children covers sum to the parent cover.
  const TreeNode& root = tree.nodes()[0];
  if (root.feature >= 0) {
    EXPECT_DOUBLE_EQ(
        tree.nodes()[static_cast<size_t>(root.left)].cover +
            tree.nodes()[static_cast<size_t>(root.right)].cover,
        root.cover);
  }
}

TEST(TreeTest, DeterministicWithSameRngSeed) {
  Rng data_rng(17);
  std::vector<std::vector<double>> cols(10, std::vector<double>(200));
  for (auto& c : cols) {
    for (auto& v : c) v = data_rng.Normal();
  }
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) y[i] = cols[0][i] + 0.3 * data_rng.Normal();
  auto x = ColMatrix::FromColumns(cols);
  auto binned = BinnedMatrix::Build(*x);
  std::vector<double> g(200), h(200, 1.0);
  for (size_t i = 0; i < 200; ++i) g[i] = -y[i];
  TreeParams params;
  params.colsample_per_node = 0.5;
  RegressionTree a, b;
  Rng rng_a(5), rng_b(5);
  ASSERT_TRUE(a.Fit(*binned, g, h, params, &rng_a).ok());
  ASSERT_TRUE(b.Fit(*binned, g, h, params, &rng_b).ok());
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_DOUBLE_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

class TreeDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeDepthSweep, TrainErrorDecreasesWithDepth) {
  Rng rng(23);
  const size_t n = 600;
  std::vector<double> c0(n), c1(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = rng.Normal();
    c1[i] = rng.Normal();
    y[i] = std::sin(2.0 * c0[i]) + c1[i] * c1[i];
  }
  auto x = ColMatrix::FromColumns({c0, c1});
  TreeParams shallow;
  shallow.max_depth = GetParam();
  TreeParams deeper;
  deeper.max_depth = GetParam() + 2;
  const RegressionTree tree_shallow = FitTree(*x, y, shallow);
  const RegressionTree tree_deeper = FitTree(*x, y, deeper);
  auto sse = [&](const RegressionTree& tree) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = tree.PredictOne(*x, i) - y[i];
      acc += d * d;
    }
    return acc;
  };
  EXPECT_LE(sse(tree_deeper), sse(tree_shallow) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace fab::ml
