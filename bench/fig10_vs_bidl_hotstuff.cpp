// Reproduces Fig. 10: voting and auction applications on OrderlessChain vs
// BIDL vs Sync HotStuff — 16 organizations, EP {4 of 16}, arrival rates
// 500…4000 tps. Expected shape: both baselines scale better than Fabric but
// OrderlessChain still wins; BIDL's sequencer multicast and Sync HotStuff's
// leader broadcast saturate in the WAN at a few thousand tps while
// OrderlessChain's latency stays constant. Emits BENCH_fig10.json: one point
// per system x application x arrival rate, for bench_regress.
#include "bench_common.h"
#include "obs/json.h"

int main() {
  using namespace orderless::bench;
  const int reps = BenchReps(1);
  const auto seconds = BenchSeconds(orderless::sim::Sec(8));
  orderless::obs::JsonBench json("fig10");

  for (const AppKind app : {AppKind::kVoting, AppKind::kAuction}) {
    PrintBanner(std::string("Fig. 10 — ") +
                    std::string(orderless::harness::AppName(app)) +
                    " application (16 orgs, EP {4 of 16})",
                "Modify + read throughput and latency vs BIDL and Sync "
                "HotStuff.");
    TablePrinter table({"system", "arrival", "tput(tps)", "mod avg(ms)",
                        "read avg(ms)", "failed%"});
    for (const SystemKind system :
         {SystemKind::kOrderless, SystemKind::kBidl,
          SystemKind::kSyncHotStuff}) {
      for (double rate = 500; rate <= 4000; rate += 500) {
        ExperimentConfig config;
        config.system = system;
        config.app = app;
        config.num_orgs = 16;
        config.policy = orderless::core::EndorsementPolicy{4, 16};
        config.workload.arrival_tps = rate;
        config.workload.duration = seconds;
        config.workload.drain = orderless::sim::Sec(30);
        config.workload.num_clients = 1000;
        config.seed = 11;
        const AveragedPoint p = RunAveraged(config, reps);
        const std::string name(orderless::harness::SystemName(system));
        table.AddRow({name, TablePrinter::Num(rate, 0),
                      TablePrinter::Num(p.throughput_tps, 0),
                      TablePrinter::Num(p.modify_avg_ms),
                      TablePrinter::Num(p.read_avg_ms),
                      TablePrinter::Num(p.failed_fraction * 100)});
        json.Point(std::string(orderless::harness::AppName(app)) + "_" +
                   std::to_string(static_cast<int>(rate)));
        json.Field("system", name);
        json.Field("events_processed", p.events_processed);
        json.Field("throughput_tps", p.throughput_tps, 1);
        json.Field("modify_avg_ms", p.modify_avg_ms);
        json.Field("read_avg_ms", p.read_avg_ms);
        json.Field("failed_fraction", p.failed_fraction, 4);
      }
    }
    table.Print();
  }
  json.Write();
  return 0;
}
