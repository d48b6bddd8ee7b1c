// Order statistics and the change-versus-parent verdict used by
// `orderless_bench compare`.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace orderless::bench {

/// Nearest-rank percentile of an ascending, non-empty sample: the value at
/// 1-based rank ceil(p/100 * n), clamped to [1, n]. No interpolation, so the
/// result is always one of the samples.
template <typename T>
T NearestRank(const std::vector<T>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Samples strictly above the nearest-rank p-th percentile's rank.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (its default "exclusive" method), so spreads printed here match
/// the ones a reader recomputes from the run values. The middle cut is the
/// median. One value is its own quartiles; `values` must be non-empty.
Quartiles QuartilesOf(std::vector<double> values);

enum class Better { kLower, kHigher };

/// One end-to-end metric as BENCHMARK.json declares it.
struct MetricBound {
  std::string name;
  std::string unit;
  Better better = Better::kLower;
  double bound = 0;  // share of the parent's median the change may lose
};

enum class Verdict { kImproved, kUnchanged, kWorse, kUnresolved };
const char* VerdictName(Verdict verdict);

/// Classifies one (workload, metric) pair from the parent's and the
/// change's run values:
/// - unresolved: the parent's quartile spread exceeds the bound, unless
///   every change run beats every parent run;
/// - worse: the change's median is worse by more than the bound;
/// - improved: the change wins at least nine tenths of all parent x change
///   run pairs and the medians differ by more than the parent's spread;
/// - unchanged otherwise.
Verdict Classify(const std::vector<double>& parent,
                 const std::vector<double>& change, const MetricBound& metric);

}  // namespace orderless::bench
