// Small order statistics used by every benchmark phase, over the
// library's own type-7 estimator (dds::percentile).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dds/common/stats.hpp"

namespace perfbench {

/// dds::percentile, with 0 for an empty sample (a phase a workload
/// does not run).
inline double percentile(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : dds::percentile(v, p);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Harrell-Davis estimate of the p-th percentile: a weighted mean of all
/// order statistics, with Beta(p(n+1), (1-p)(n+1)) weights. On a small
/// sample drawn from clusters (one per policy) it moves smoothly where
/// the type-7 estimate jumps between two neighbours. 0 for an empty
/// sample.
inline double hdPercentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double a = p / 100.0 * (n + 1.0);
  const double b = (1.0 - p / 100.0) * (n + 1.0);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    if (x <= 0.0 || x >= 1.0) return 0.0;
    return std::exp(log_norm + (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
  };
  // Each weight is the Beta mass over [i/n, (i+1)/n], by Simpson's rule.
  constexpr int kSteps = 64;
  double estimate = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double h = 1.0 / n / kSteps;
    double mass = density(lo) + density(lo + 1.0 / n);
    for (int k = 1; k < kSteps; ++k) {
      mass += (k % 2 == 1 ? 4.0 : 2.0) * density(lo + k * h);
    }
    mass *= h / 3.0;
    estimate += mass * v[i];
    total += mass;
  }
  return estimate / total;
}

/// Samples beyond the p-th percentile of n. The summary prints it, so a
/// reader can tell whether a tail percentile rests on at least ten.
inline std::size_t samplesBeyond(std::size_t n, double p) {
  const double above = static_cast<double>(n) * (100.0 - p) / 100.0;
  return static_cast<std::size_t>(std::floor(above + 1e-9));
}

/// Ratio with an explicit zero for an empty base.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace perfbench
