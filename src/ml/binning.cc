#include "ml/binning.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

namespace fab::ml {

Result<BinnedMatrix> BinnedMatrix::Build(const ColMatrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  BinnedMatrix out;
  out.rows_ = x.rows();
  out.codes_.resize(x.cols());
  out.upper_edges_.resize(x.cols());

  // Columns bin independently, each into its own slots, so the result
  // is the same at any pool width.
  const size_t n = x.rows();
  util::ParallelFor(0, x.cols(), [&](size_t c) {
    const std::vector<double>& col = x.column(c);
    std::vector<double> sorted = col;
    std::sort(sorted.begin(), sorted.end());

    // Candidate edges at evenly spaced quantiles; deduplicate so every
    // bin holds a distinct value range. The last edge is the max value.
    std::vector<double>& edges = out.upper_edges_[c];
    edges.clear();
    if (n > 0) {
      for (int b = 1; b <= max_bins; ++b) {
        // Upper edge of bin b at the b/max_bins quantile.
        size_t pos = static_cast<size_t>(b) * n / static_cast<size_t>(max_bins);
        pos = pos == 0 ? 0 : std::min(pos - 1, n - 1);
        const double v = sorted[pos];
        if (edges.empty() || v > edges.back()) edges.push_back(v);
      }
      edges.back() = sorted.back();
    } else {
      edges.push_back(0.0);
    }

    // Assign codes: the first bin whose upper edge >= value.
    std::vector<uint8_t>& codes = out.codes_[c];
    codes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const auto it = std::lower_bound(edges.begin(), edges.end(), col[i]);
      const size_t b = it == edges.end() ? edges.size() - 1
                                         : static_cast<size_t>(it - edges.begin());
      codes[i] = static_cast<uint8_t>(b);
    }
  });
  return out;
}

}  // namespace fab::ml
