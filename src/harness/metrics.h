// Performance metrics matching the paper's §9: transaction throughput,
// average / 1st-percentile / 99th-percentile latency, split by modify and
// read transactions, plus per-second throughput series for the Byzantine
// timeline plots (Fig. 8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

/// Overload-protection counters aggregated across organizations and clients
/// (all zero while the overload layer is disabled — the seed behaviour).
struct RobustnessStats {
  // Organization side: requests shed at admission.
  std::uint64_t shed_endorse = 0;
  std::uint64_t shed_commit = 0;
  std::uint64_t shed_gossip = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t busy_sent = 0;
  // Client side: retry / breaker activity.
  std::uint64_t client_retries = 0;
  std::uint64_t busy_received = 0;
  std::uint64_t commit_resends = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t half_open_probes = 0;
  // Checkpoint / catch-up activity aggregated across organizations (all
  // zero while checkpointing is disabled).
  std::uint64_t ckpt_sealed = 0;
  std::uint64_t ckpt_installed = 0;
  std::uint64_t ckpt_txs_covered = 0;
  std::uint64_t sync_txs_sent = 0;
  std::uint64_t sync_txs_received = 0;
  std::uint64_t pruned_records = 0;
  // Quorum-attestation activity (all zero while checkpointing is disabled).
  std::uint64_t ckpt_announced = 0;
  std::uint64_t ckpt_attest_sent = 0;
  std::uint64_t ckpt_attest_received = 0;
  std::uint64_t ckpt_attested = 0;
  std::uint64_t ckpt_refused = 0;

  std::uint64_t TotalShed() const {
    return shed_endorse + shed_commit + shed_gossip + shed_deadline;
  }

  /// Exports every counter into `registry` under "robustness.*" (catch-up
  /// activity under "catchup.*") — the one reporting source shared by the
  /// experiment CLI, the overload bench and the chaos tooling.
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
