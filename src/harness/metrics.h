// Performance metrics matching the paper's §9: transaction throughput,
// average / 1st-percentile / 99th-percentile latency, split by modify and
// read transactions, plus per-second throughput series for the Byzantine
// timeline plots (Fig. 8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/org.h"
#include "sim/time.h"

namespace orderless::obs {
class Histogram;
class MetricsRegistry;
}

namespace orderless::harness {

/// Collects per-transaction latencies and computes the paper's statistics.
class LatencyRecorder {
 public:
  void Record(sim::SimTime latency) {
    samples_.push_back(latency);
    sorted_ = false;  // percentiles may have sorted an earlier prefix
  }
  std::size_t count() const { return samples_.size(); }
  double AverageMs() const;
  /// p in [0, 100]; nearest-rank percentile.
  double PercentileMs(double p) const;
  /// Replays every sample into a fixed-bucket histogram (the registry's
  /// exportable form; exact-sample statistics stay here).
  void FillHistogram(obs::Histogram& histogram) const;

  /// Appends `other`'s samples in their recorded order (per-client shard
  /// merge; callers merge shards in a fixed order so the combined sample
  /// sequence is deterministic).
  void MergeFrom(const LatencyRecorder& other);

 private:
  mutable std::vector<sim::SimTime> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

/// Per-second committed-transaction counts (Fig. 8 timelines).
class ThroughputSeries {
 public:
  explicit ThroughputSeries(sim::SimTime bucket = sim::Sec(1))
      : bucket_(bucket) {}
  void Record(sim::SimTime commit_time);
  /// Committed tx per second for each bucket up to `until`.
  std::vector<double> PerSecond(sim::SimTime until) const;

  /// Element-wise sum of `other`'s buckets (same bucket width assumed).
  void MergeFrom(const ThroughputSeries& other);

 private:
  sim::SimTime bucket_;
  std::vector<std::uint64_t> buckets_;
};

/// The overload, retry and checkpoint catch-up counters of one OrderlessChain
/// run, summed over its organizations and clients by
/// OrderlessNet::Robustness() (all zero for the other systems and while those
/// layers are off).
struct RobustnessStats {
  core::OverloadStats overload;
  core::ClientRetryStats retry;
  core::CatchupStats catchup;

  /// Exports every listed counter into `registry` under its metric name —
  /// the one reporting source shared by the experiment CLI, the overload
  /// bench and the chaos tooling.
  void FillRegistry(obs::MetricsRegistry& registry) const;
};

/// Everything one experiment reports.
struct ExperimentMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t committed_modify = 0;
  std::uint64_t committed_read = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  LatencyRecorder modify_latency;
  LatencyRecorder read_latency;
  LatencyRecorder combined_latency;
  ThroughputSeries per_second;
  sim::SimTime first_commit = 0;
  sim::SimTime last_commit = 0;
  RobustnessStats robustness;

  /// Committed transactions divided by the time they took (paper's
  /// definition of transaction throughput).
  double ThroughputTps() const;

  /// Accumulates a per-client shard (counts add, latency samples append,
  /// commit window widens). Robustness counters are not merged — they are
  /// collected once from the driver after the run. The experiment runner
  /// keeps one shard per client in *both* engine modes and merges them in
  /// client order, so the combined document is byte-identical at any
  /// thread count.
  void MergeFrom(const ExperimentMetrics& other);

  /// Exports counts, throughput, latency statistics and histograms into
  /// `registry` under "experiment.*" (plus the robustness counters).
  void FillRegistry(obs::MetricsRegistry& registry) const;
};

/// Averages a metric across repetition runs.
double Mean(const std::vector<double>& values);

}  // namespace orderless::harness
