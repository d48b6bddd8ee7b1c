#include "harness/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace orderless::harness {

void LatencyRecorder::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyRecorder::AverageMs() const {
  if (samples_.empty()) return 0.0;
  // Sum in sorted order: floating-point addition is order-sensitive in the
  // low bits, and the lazy sort in PercentileMs would otherwise make the
  // reported average depend on which accessor ran first.
  EnsureSorted();
  double sum = 0;
  for (sim::SimTime t : samples_) sum += sim::ToMs(t);
  return sum / static_cast<double>(samples_.size());
}

double LatencyRecorder::PercentileMs(double p) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
  return sim::ToMs(samples_[std::min(idx, samples_.size() - 1)]);
}

void ThroughputSeries::Record(sim::SimTime commit_time) {
  const std::size_t bucket = static_cast<std::size_t>(commit_time / bucket_);
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
}

std::vector<double> ThroughputSeries::PerSecond(sim::SimTime until) const {
  const std::size_t n = static_cast<std::size_t>(until / bucket_);
  std::vector<double> out(n, 0.0);
  const double scale = 1e6 / static_cast<double>(bucket_);
  for (std::size_t i = 0; i < n && i < buckets_.size(); ++i) {
    out[i] = static_cast<double>(buckets_[i]) * scale;
  }
  return out;
}

void LatencyRecorder::MergeFrom(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

void ThroughputSeries::MergeFrom(const ThroughputSeries& other) {
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void ExperimentMetrics::MergeFrom(const ExperimentMetrics& other) {
  submitted += other.submitted;
  committed_modify += other.committed_modify;
  committed_read += other.committed_read;
  failed += other.failed;
  rejected += other.rejected;
  modify_latency.MergeFrom(other.modify_latency);
  read_latency.MergeFrom(other.read_latency);
  combined_latency.MergeFrom(other.combined_latency);
  per_second.MergeFrom(other.per_second);
  if (other.first_commit != 0 &&
      (first_commit == 0 || other.first_commit < first_commit)) {
    first_commit = other.first_commit;
  }
  last_commit = std::max(last_commit, other.last_commit);
}

double ExperimentMetrics::ThroughputTps() const {
  const std::uint64_t committed = committed_modify + committed_read;
  if (committed == 0 || last_commit <= first_commit) return 0.0;
  return static_cast<double>(committed) /
         sim::ToSec(last_commit - first_commit);
}

void LatencyRecorder::FillHistogram(obs::Histogram& histogram) const {
  for (sim::SimTime t : samples_) histogram.Record(t);
}

namespace {

template <typename Stats>
void FillCounters(const Stats& stats, obs::MetricsRegistry& registry) {
  for (const NamedCounter<Stats>& c : Stats::kCounters) {
    registry.counter(c.name).Add(stats.*c.member);
  }
}

}  // namespace

void RobustnessStats::FillRegistry(obs::MetricsRegistry& registry) const {
  FillCounters(overload, registry);
  FillCounters(retry, registry);
  FillCounters(catchup, registry);
}

void ExperimentMetrics::FillRegistry(obs::MetricsRegistry& registry) const {
  registry.counter("experiment.submitted").Add(submitted);
  registry.counter("experiment.committed_modify").Add(committed_modify);
  registry.counter("experiment.committed_read").Add(committed_read);
  registry.counter("experiment.failed").Add(failed);
  registry.counter("experiment.rejected").Add(rejected);
  registry.gauge("experiment.throughput_tps").Set(ThroughputTps());
  registry.gauge("experiment.first_commit_ms").Set(sim::ToMs(first_commit));
  registry.gauge("experiment.last_commit_ms").Set(sim::ToMs(last_commit));
  const std::pair<const char*, const LatencyRecorder*> recorders[] = {
      {"experiment.modify_latency", &modify_latency},
      {"experiment.read_latency", &read_latency},
      {"experiment.combined_latency", &combined_latency},
  };
  for (const auto& [name, recorder] : recorders) {
    // Exact-sample statistics as gauges (the paper's numbers) next to the
    // bucketed distribution.
    registry.gauge(std::string(name) + ".avg_ms").Set(recorder->AverageMs());
    registry.gauge(std::string(name) + ".p1_ms")
        .Set(recorder->PercentileMs(1));
    registry.gauge(std::string(name) + ".p99_ms")
        .Set(recorder->PercentileMs(99));
    recorder->FillHistogram(registry.histogram(std::string(name) + "_hist"));
  }
  robustness.FillRegistry(registry);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace orderless::harness
