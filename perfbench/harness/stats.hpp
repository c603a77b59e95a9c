// Sample statistics of the benchmark: nearest-rank quantiles and the
// tail-rank rule that decides whether a quantile may be reported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

/// A failed or refused operation enters a latency sample as +infinity,
/// so it counts as missing every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Minimum number of samples that must lie strictly beyond a quantile
/// before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of quantile q in n samples: ceil(q·n), at least 1.
inline std::size_t quantile_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples strictly beyond the rank of quantile q.
inline std::size_t samples_beyond(double q, std::size_t n) {
  return n - quantile_rank(q, n);
}

/// Whether quantile q of n samples has at least kTailSamples beyond it.
inline bool quantile_reportable(double q, std::size_t n) {
  return n > 0 && samples_beyond(q, n) >= kTailSamples;
}

/// Sorted copy of a sample set with nearest-rank quantile lookup.
class Sample {
 public:
  Sample() = default;
  explicit Sample(std::vector<double> v) : v_(std::move(v)) {
    std::sort(v_.begin(), v_.end());
  }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Nearest-rank quantile; NaN for an empty sample.
  double quantile(double q) const {
    if (v_.empty()) return std::numeric_limits<double>::quiet_NaN();
    return v_[quantile_rank(q, v_.size()) - 1];
  }
  double median() const { return quantile(0.5); }
  bool reportable(double q) const { return quantile_reportable(q, v_.size()); }
  double mean() const {
    return v_.empty() ? 0.0
                      : std::accumulate(v_.begin(), v_.end(), 0.0) /
                            static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

/// Median of a small vector (by value; NaN when empty).
inline double median_of(std::vector<double> v) {
  return Sample(std::move(v)).median();
}

}  // namespace perfbench
