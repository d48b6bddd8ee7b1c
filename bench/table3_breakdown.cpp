// Reproduces Table 3: breakdown of the average transaction processing time
// per phase for each system, on the voting application. The paper reports
// OrderlessChain and Fabric at 2500 tps and BIDL at 4000 tps (Sync HotStuff
// at its saturation point). Expected shape: OrderlessChain's two phases are
// tens of milliseconds; the coordination-based systems are dominated by
// their consensus phase (seconds), which is their ordering bottleneck
// queueing under overload. Emits BENCH_table3.json: one point per system x
// phase, for bench_regress.
#include "bench_common.h"
#include "obs/json.h"

int main() {
  using namespace orderless::bench;
  const auto seconds = BenchSeconds(orderless::sim::Sec(8));

  PrintBanner("Table 3 — Breakdown of Average Transaction Processing Time",
              "Voting application. OrderlessChain/Fabric at 2500 tps, "
              "BIDL/Sync HotStuff at 4000 tps. Phase times are organization-"
              "side (client WAN latency excluded, as in the paper).");

  struct Row {
    SystemKind system;
    std::uint32_t orgs;
    double rate;
  };
  const Row rows[] = {
      {SystemKind::kOrderless, 16, 2500},
      {SystemKind::kFabric, 8, 2500},
      {SystemKind::kBidl, 16, 4000},
      {SystemKind::kSyncHotStuff, 16, 4000},
  };

  orderless::obs::JsonBench json("table3");
  for (const Row& row : rows) {
    ExperimentConfig config;
    config.system = row.system;
    config.app = AppKind::kVoting;
    config.num_orgs = row.orgs;
    config.policy = orderless::core::EndorsementPolicy{4, row.orgs};
    config.workload.arrival_tps = row.rate;
    config.workload.duration = seconds;
    config.workload.drain = orderless::sim::Sec(30);
    config.workload.num_clients = 1000;
    config.seed = 5;
    const auto result = RunExperiment(config);
    const std::string system(orderless::harness::SystemName(row.system));
    std::printf("%s (%.0f tps):\n", system.c_str(), row.rate);
    for (const auto& [phase, ms] : result.breakdown.phases) {
      std::printf("  %-14s %10.1f ms\n", phase.c_str(), ms);
      json.Point(phase);
      json.Field("system", system);
      json.Field("events_processed", result.events_processed);
      json.Field("phase_ms", ms);
    }
    std::printf("\n");
  }
  json.Write();
  return 0;
}
