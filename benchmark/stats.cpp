#include "stats.h"

namespace orderless::bench {

Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive": m = n + 1, cut i at
  // position i*m/4 (1-based), interpolated between its neighbours.
  double cut[3];
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return {cut[0], cut[1], cut[2]};
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kImproved:
      return "improved";
    case Verdict::kUnchanged:
      return "unchanged";
    case Verdict::kWorse:
      return "worse";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Verdict Classify(const std::vector<double>& parent,
                 const std::vector<double>& change, const MetricBound& metric) {
  const bool lower = metric.better == Better::kLower;
  const auto beats = [lower](double a, double b) {
    return lower ? a < b : a > b;
  };
  const Quartiles p = QuartilesOf(parent);
  const double c = QuartilesOf(change).median;
  // Contract metrics are never 0; the fallback keeps a zero median finite.
  const double base = p.median != 0 ? std::abs(p.median) : 1.0;
  const double worse_by = (lower ? c - p.median : p.median - c) / base;
  const double spread = p.q3 - p.q1;

  std::size_t wins = 0;
  for (const double a : change) {
    for (const double b : parent) wins += beats(a, b) ? 1 : 0;
  }
  const std::size_t pairs = change.size() * parent.size();
  const bool all_better = wins == pairs;

  if (spread / base > metric.bound && !all_better) return Verdict::kUnresolved;
  if (worse_by > metric.bound) return Verdict::kWorse;
  if (-worse_by * base > spread && wins * 10 >= pairs * 9) {
    return Verdict::kImproved;
  }
  return Verdict::kUnchanged;
}

}  // namespace orderless::bench
