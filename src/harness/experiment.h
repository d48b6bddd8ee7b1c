// Experiment runner: builds one of the five systems (OrderlessChain, Fabric,
// FabricCRDT, BIDL, Sync HotStuff), drives the paper's workloads against it
// (synthetic / voting / auction, §9 "Workloads, Control Variables and
// Metrics"), and collects the paper's metrics.
#pragma once

#include <string>
#include <vector>

#include "core/client.h"
#include "core/org.h"
#include "harness/metrics.h"

namespace orderless::obs {
class Tracer;
class Profiler;
}

namespace orderless::harness {

enum class SystemKind {
  kOrderless,
  kFabric,
  kFabricCrdt,
  kBidl,
  kSyncHotStuff,
};
std::string_view SystemName(SystemKind kind);

enum class AppKind { kSynthetic, kVoting, kAuction };
std::string_view AppName(AppKind kind);

struct WorkloadConfig {
  double arrival_tps = 3000;            // total submission rate
  sim::SimTime duration = sim::Sec(8);  // submission window
  sim::SimTime drain = sim::Sec(20);    // extra time to let commits finish
  double modify_fraction = 0.5;         // R50M50 default
  std::uint32_t num_clients = 200;

  // Synthetic application parameters (control variables 4-6).
  std::int64_t obj_count = 1;
  std::int64_t ops_per_obj = 1;
  std::string crdt_type = "g-counter";

  // Voting / auction parameters (paper: 8 elections × 8 parties,
  // 8 auctions).
  std::int64_t elections = 8;
  std::int64_t parties = 8;
  std::int64_t auctions = 8;
};

/// A scheduled change of the number of Byzantine organizations (Fig. 8).
struct ByzantinePhase {
  sim::SimTime at = 0;
  std::uint32_t byzantine_orgs = 0;
};

struct ExperimentConfig {
  SystemKind system = SystemKind::kOrderless;
  AppKind app = AppKind::kSynthetic;
  std::uint32_t num_orgs = 16;
  core::EndorsementPolicy policy{4, 16};
  WorkloadConfig workload;
  std::uint64_t seed = 1;

  // OrderlessChain organization and client settings (gossip fanout is
  // control variable 9), copied whole into the network. Two fields are then
  // overridden: `ledger_options` keeps only what the metrics need, and a
  // `checkpoint.interval` above 0 (signed, quorum-attested CRDT
  // checkpoints; DESIGN.md §12–13) sets anti-entropy to every 500 ms,
  // since checkpoints ride the summary/sync path.
  core::OrgTimingConfig org_timing;
  core::ClientTimingConfig client_timing;
  /// Normal-distribution workload per organization (control variable 8).
  bool normal_org_load = false;

  // Byzantine configuration (control variables 10-12, Fig. 8).
  std::vector<ByzantinePhase> byzantine_phases;
  core::ByzantineOrgBehavior byzantine_org_behavior;
  double byzantine_client_fraction = 0.0;
  core::ByzantineClientBehavior byzantine_client_behavior;

  /// Optional observability hook (not owned; OrderlessChain only). Wired
  /// into the simulated network when set; null = tracing disabled.
  obs::Tracer* tracer = nullptr;

  /// Optional host-side profiler (not owned; OrderlessChain only): lane
  /// utilization, barrier waits and signature-verification counts. Null =
  /// zero profiler instructions on the hot path.
  obs::Profiler* profiler = nullptr;

  /// Simulation worker threads (OrderlessChain only; baselines ignore it
  /// and stay sequential). Any value produces bit-identical simulated
  /// results; >1 spreads org/client lanes over a worker pool.
  unsigned threads = 1;
};

struct PhaseBreakdown {
  // System-specific phase names and average milliseconds (Table 3 rows).
  std::vector<std::pair<std::string, double>> phases;
};

struct ExperimentResult {
  ExperimentMetrics metrics;
  PhaseBreakdown breakdown;
  std::vector<double> throughput_per_second;  // Fig. 8 timeline
  /// Simulator events executed — a cheap determinism fingerprint: host-side
  /// optimizations and thread counts must leave it bit-identical.
  std::uint64_t events_processed = 0;
};

ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Averages `reps` runs with different seeds (the paper averages >= 3 runs).
struct AveragedPoint {
  double throughput_tps = 0;
  double modify_avg_ms = 0, modify_p1_ms = 0, modify_p99_ms = 0;
  double read_avg_ms = 0, read_p1_ms = 0, read_p99_ms = 0;
  double combined_avg_ms = 0;
  double failed_fraction = 0;
  std::uint64_t events_processed = 0;  // summed over the runs
};
AveragedPoint RunAveraged(ExperimentConfig config, int reps);

/// Environment knobs: ORDERLESS_BENCH_SECONDS / ORDERLESS_BENCH_REPS.
sim::SimTime BenchSeconds(sim::SimTime fallback);
int BenchReps(int fallback);

}  // namespace orderless::harness
