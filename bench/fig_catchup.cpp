// Checkpoint catch-up sweep: O(delta) healing vs O(history) re-pull.
//
// Runs the two checkpoint chaos presets (long partition, crash-restart under
// load) at growing workload sizes, each once with signed CRDT checkpoints on
// and once with them off. Anti-entropy runs in both configurations, so the
// off-run is the O(history) baseline: the lagging organization re-pulls
// every missed transaction body. With checkpoints on it installs one signed
// snapshot and replays only the delta committed after the last seal — its
// sync traffic must stay below the baseline's at every history length, and
// the gap must widen as history grows. Emits BENCH_catchup.json.
//
// Exit code 1 = an invariant violation, or the O(delta) property failed
// (checkpointed sync traffic not below the checkpoint-free baseline).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "obs/json.h"

namespace {

using namespace orderless;
using orderless::bench::PrintBanner;
using orderless::bench::TablePrinter;
using orderless::obs::JsonBench;

struct Preset {
  const char* name;
  chaos::Scenario scenario;
  std::uint32_t lagging_org;  // the org that must catch up
};

struct TimedRun {
  double wall_ms = 0;
  chaos::ChaosRunResult result;
};

TimedRun Run(const chaos::Scenario& scenario) {
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = chaos::RunScenario(scenario);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

}  // namespace

int main() {
  PrintBanner("Checkpoint catch-up — snapshot + delta vs full re-pull",
              "long-partition / crash-restart presets at growing history "
              "lengths, checkpoints on vs off. The lagging organization's "
              "sync traffic must stay O(delta), not O(history).");

  const std::uint32_t history_sweep[] = {48, 96, 192, 384};

  JsonBench json("catchup");
  TablePrinter table({"preset", "txs", "ckpt", "wall(ms)", "sync rx",
                      "covered", "recovered", "pruned"});
  bool ok = true;

  for (std::uint32_t txs : history_sweep) {
    std::vector<Preset> presets;
    presets.push_back({"long_partition",
                       chaos::MakeLongPartitionScenario(/*seed=*/1), 4});
    presets.push_back({"crash_restart",
                       chaos::MakeCrashRestartScenario(/*seed=*/1), 3});
    for (Preset& preset : presets) {
      preset.scenario.tx_count = txs;
      chaos::Scenario baseline_scenario = preset.scenario;
      baseline_scenario.checkpoints = false;

      const TimedRun with = Run(preset.scenario);
      const TimedRun without = Run(baseline_scenario);
      for (const TimedRun* run : {&with, &without}) {
        if (!run->result.ok()) {
          std::printf("INVARIANT FAIL [%s txs=%u]: %s\n", preset.name, txs,
                      run->result.Summary().c_str());
          ok = false;
        }
      }

      const core::CatchupStats& on = with.result.org_catchup[preset.lagging_org];
      const core::CatchupStats& off =
          without.result.org_catchup[preset.lagging_org];
      // The O(delta) property: snapshot install replaces per-tx re-pull.
      if (on.ckpt_installed == 0 || on.sync_txs_received >= off.sync_txs_received) {
        std::printf("O(DELTA) FAIL [%s txs=%u]: installed=%llu sync rx "
                    "%llu (ckpt) vs %llu (baseline)\n",
                    preset.name, txs,
                    static_cast<unsigned long long>(on.ckpt_installed),
                    static_cast<unsigned long long>(on.sync_txs_received),
                    static_cast<unsigned long long>(off.sync_txs_received));
        ok = false;
      }

      for (const bool checkpoints : {true, false}) {
        const TimedRun& run = checkpoints ? with : without;
        const core::CatchupStats& cu = checkpoints ? on : off;
        const core::CatchupStats& total = run.result.robustness.catchup;
        json.Point(std::string(preset.name) +
                   (checkpoints ? "_ckpt_" : "_baseline_") +
                   std::to_string(txs));
        json.Field("tx_count", static_cast<std::uint64_t>(txs));
        json.Field("checkpoints", std::string(checkpoints ? "on" : "off"));
        json.Field("wall_ms", run.wall_ms, 2);
        json.Field("committed",
                   static_cast<std::uint64_t>(run.result.committed));
        json.Field("sync_txs_received", cu.sync_txs_received);
        json.Field("ckpt_installed", cu.ckpt_installed);
        json.Field("ckpt_txs_covered", cu.ckpt_txs_covered);
        json.Field("recovered_records", cu.recovered_records);
        json.Field("pruned_records_total", total.pruned_records);
        table.AddRow({preset.name, std::to_string(txs),
                      checkpoints ? "on" : "off",
                      TablePrinter::Num(run.wall_ms, 1),
                      std::to_string(cu.sync_txs_received),
                      std::to_string(cu.ckpt_txs_covered),
                      std::to_string(cu.recovered_records),
                      std::to_string(total.pruned_records)});
      }
    }
  }
  table.Print();

  json.Scalar("o_delta_holds", ok ? "true" : "false");
  json.Write();

  std::printf("\nO(delta) catch-up property %s\n", ok ? "holds" : "FAILED");
  return ok ? 0 : 1;
}
