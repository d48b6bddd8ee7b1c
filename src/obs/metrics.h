// Metrics registry: named counters, gauges and fixed-bucket histograms with
// one JSON export path (obs/json.h). harness::ExperimentMetrics,
// harness::RobustnessStats (the overload, retry and catch-up counters that
// core::OverloadStats, core::ClientRetryStats and core::CatchupStats each
// list once with their metric names) and the tracer's convergence/phase
// stats all report through a registry, so the experiment CLI, the benches,
// the overload layer and the chaos tooling emit the same schema from the
// same source.
//
// The registry is tooling-side: metrics are filled after a run completes
// (or by explicitly instrumented non-hot paths), never on the simulator's
// per-event path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace orderless::obs {

class JsonBench;

/// Monotonically increasing integer.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-writer-wins scalar.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram over microsecond values. Bucket i counts samples
/// <= bounds[i]; one implicit overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds_us);

  /// Default latency buckets: 1ms .. 60s, roughly ×2 per step.
  static std::vector<std::uint64_t> DefaultLatencyBoundsUs();

  void Record(std::uint64_t value_us);
  std::uint64_t count() const { return count_; }
  std::uint64_t sum_us() const { return sum_; }
  double AverageMs() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / 1000.0 /
                             static_cast<double>(count_);
  }
  /// Upper bound (ms) of the bucket containing the p-th percentile sample
  /// (p in [0,100]; nearest-rank over bucket counts). Overflow reports the
  /// largest bound. Approximate by construction — the exact-sample
  /// statistics of the paper remain in harness::LatencyRecorder.
  double PercentileUpperBoundMs(double p) const;

  const std::vector<std::uint64_t>& bounds_us() const { return bounds_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Insertion-ordered name → metric store. Lookup is linear — registries hold
/// tens of metrics and are touched at reporting time, not per event.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds_us = {});

  /// Emits every metric as a point in the shared JSON schema:
  ///   {"name": "...", "kind": "counter|gauge|histogram", ...}
  void Fill(JsonBench& json) const;

  /// Writes a standalone metrics document (`--metrics-json`). `label` names
  /// the document ("bench" field), e.g. "experiment_metrics".
  bool WriteJsonFile(const std::string& label, const std::string& path) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  template <typename T>
  struct Named {
    std::string name;
    T metric;
  };
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

}  // namespace orderless::obs
