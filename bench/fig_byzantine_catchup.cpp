// Byzantine checkpoint catch-up sweep: O(delta) healing under attack.
//
// Runs the byzantine-catchup preset (EP{3 of 6}, f = n-q = 2 organizations
// actively attacking the checkpoint layer: forged/equivocated digests,
// dishonest attestation, stale-checkpoint replay, withheld attestations,
// corrupted deltas) at growing workload sizes, each once with quorum-attested
// checkpoints on and once with checkpoints off. The off-run is the
// O(history) baseline under the same partition: the lagging honest
// organization re-pulls every missed transaction body. With attestation on
// it must still install an honestly-attested snapshot and replay only the
// delta — the adversaries must not be able to push its sync traffic back to
// O(history), nor sneak a forgery past the q-of-n install gate.
// Emits BENCH_byzantine_catchup.json.
//
// Exit code 1 = an invariant violation, the O(delta)-under-attack property
// failed, or the adversaries never engaged (no honest org refused or
// rejected anything — the run would prove nothing).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "obs/json.h"

namespace {

using namespace orderless;
using orderless::bench::PrintBanner;
using orderless::bench::TablePrinter;
using orderless::obs::JsonBench;

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
  PrintBanner("Byzantine checkpoint catch-up — O(delta) healing under attack",
              "byzantine-catchup preset at growing history lengths, "
              "quorum-attested checkpoints on vs off. The lagging honest "
              "organization's sync traffic must stay O(delta) while f = n-q "
              "organizations attack the checkpoint layer.");

  const std::uint32_t kLaggingOrg = 5;  // honest, partitioned for most of the run
  const std::uint32_t history_sweep[] = {48, 96, 192, 384};

  JsonBench json("byzantine_catchup");
  TablePrinter table({"txs", "ckpt", "wall(ms)", "sync rx", "covered",
                      "rejected", "refused", "attested"});
  bool ok = true;

  for (std::uint32_t txs : history_sweep) {
    chaos::Scenario scenario = chaos::MakeByzantineCatchupScenario(/*seed=*/1);
    scenario.tx_count = txs;
    chaos::Scenario baseline_scenario = scenario;
    baseline_scenario.checkpoints = false;

    const TimedRun with = Run(scenario);
    const TimedRun without = Run(baseline_scenario);
    for (const TimedRun* run : {&with, &without}) {
      if (!run->result.ok()) {
        std::printf("INVARIANT FAIL [txs=%u]: %s\n", txs,
                    run->result.Summary().c_str());
        ok = false;
      }
    }

    const core::CatchupStats& on = with.result.org_catchup[kLaggingOrg];
    const core::CatchupStats& off = without.result.org_catchup[kLaggingOrg];
    // O(delta) under attack: the adversaries must not force the healing org
    // back to per-tx re-pull, and the install it relied on carried quorum.
    if (on.ckpt_installed == 0 ||
        on.sync_txs_received >= off.sync_txs_received) {
      std::printf("O(DELTA) FAIL [txs=%u]: installed=%llu sync rx "
                  "%llu (attested ckpt) vs %llu (baseline)\n",
                  txs, static_cast<unsigned long long>(on.ckpt_installed),
                  static_cast<unsigned long long>(on.sync_txs_received),
                  static_cast<unsigned long long>(off.sync_txs_received));
      ok = false;
    }
    // Engagement: at least one honest org must have refused an announce or
    // rejected an unattested/forged checkpoint, or the attack never landed.
    std::uint64_t honest_pushback = 0;
    for (const std::size_t org : {0, 1, 4, 5}) {
      honest_pushback += with.result.org_catchup[org].ckpt_refused +
                         with.result.org_catchup[org].ckpt_rejected;
    }
    if (honest_pushback == 0) {
      std::printf("ENGAGEMENT FAIL [txs=%u]: no honest org refused or "
                  "rejected anything\n",
                  txs);
      ok = false;
    }

    for (const bool checkpoints : {true, false}) {
      const TimedRun& run = checkpoints ? with : without;
      const core::CatchupStats& cu = checkpoints ? on : off;
      const core::CatchupStats& total = run.result.robustness.catchup;
      json.Point(std::string("byzantine_catchup") +
                 (checkpoints ? "_attested_" : "_baseline_") +
                 std::to_string(txs));
      json.Field("tx_count", static_cast<std::uint64_t>(txs));
      json.Field("checkpoints", std::string(checkpoints ? "on" : "off"));
      json.Field("wall_ms", run.wall_ms, 2);
      json.Field("committed", static_cast<std::uint64_t>(run.result.committed));
      json.Field("sync_txs_received", cu.sync_txs_received);
      json.Field("ckpt_installed", cu.ckpt_installed);
      json.Field("ckpt_txs_covered", cu.ckpt_txs_covered);
      json.Field("ckpt_rejected_total", total.ckpt_rejected);
      json.Field("ckpt_refused_total", total.ckpt_refused);
      json.Field("ckpt_attested_total", total.ckpt_attested);
      json.Field("honest_pushback", honest_pushback);
      table.AddRow({std::to_string(txs), checkpoints ? "on" : "off",
                    TablePrinter::Num(run.wall_ms, 1),
                    std::to_string(cu.sync_txs_received),
                    std::to_string(cu.ckpt_txs_covered),
                    std::to_string(total.ckpt_rejected),
                    std::to_string(total.ckpt_refused),
                    std::to_string(total.ckpt_attested)});
    }
  }
  table.Print();

  json.Scalar("o_delta_under_attack_holds", ok ? "true" : "false");
  json.Write();

  std::printf("\nO(delta)-under-attack property %s\n", ok ? "holds" : "FAILED");
  return ok ? 0 : 1;
}
