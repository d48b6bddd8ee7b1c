// Tier-2 chaos suite: seed-derived fault scenarios run end to end with the
// invariant checker armed, replays are bit-identical, and the deliberately
// unsafe configuration (q <= f) is caught and minimized.
#include <gtest/gtest.h>

#include "chaos/minimize.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace orderless {
namespace {

using chaos::ChaosRunResult;
using chaos::FaultKind;
using chaos::GenerateScenario;
using chaos::MakeUnsafeScenario;
using chaos::MinimizeScenario;
using chaos::RunScenario;
using chaos::Scenario;

std::string ViolationText(const ChaosRunResult& result) {
  std::string text;
  for (const auto& v : result.violations) {
    text += "[" + v.invariant + "] " + v.detail + "\n";
  }
  return text;
}

class ChaosSeed : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeed, InvariantsHold) {
  const Scenario scenario = GenerateScenario(GetParam());
  const ChaosRunResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << result.Summary() << "\n"
                           << ViolationText(result) << scenario.Describe();
  EXPECT_GT(result.submitted, 0u);
  EXPECT_GT(result.committed, 0u);
}

// A fixed seed list keeps tier-2 runtime bounded; the broader sweep runs as
// the chaos_explorer_sweep ctest entry.
INSTANTIATE_TEST_SUITE_P(FixedSeeds, ChaosSeed,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(ChaosReplay, SameSeedSameFingerprint) {
  const Scenario scenario = GenerateScenario(42);
  const ChaosRunResult first = RunScenario(scenario);
  const ChaosRunResult second = RunScenario(scenario);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.bytes_sent, second.bytes_sent);
  EXPECT_EQ(first.committed, second.committed);
}

TEST(ChaosReplay, ScenarioGenerationIsDeterministic) {
  const Scenario a = GenerateScenario(7);
  const Scenario b = GenerateScenario(7);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.events.size(), b.events.size());
  const Scenario c = GenerateScenario(8);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(ChaosUnsafe, MisconfiguredPolicyIsDetectedAndMinimized) {
  // EP:{1 of 4} with one always-wrong endorser violates q >= f+1; the
  // safety invariant (every valid commit carries an honest endorsement)
  // must fire, and ddmin must strip the decoy link-fault events, leaving
  // exactly the Byzantine phase.
  const Scenario scenario = MakeUnsafeScenario(1);
  ASSERT_EQ(scenario.events.size(), 3u);
  const ChaosRunResult result = RunScenario(scenario);
  ASSERT_FALSE(result.ok()) << "unsafe configuration went undetected";
  bool saw_safety = false;
  for (const auto& v : result.violations) {
    if (v.invariant == "byzantine-quorum") saw_safety = true;
  }
  EXPECT_TRUE(saw_safety) << ViolationText(result);

  const auto min = MinimizeScenario(scenario);
  EXPECT_TRUE(min.reproduced);
  ASSERT_EQ(min.minimized.events.size(), 1u);
  EXPECT_EQ(min.minimized.events[0].kind, FaultKind::kOrgByzantineOn);
  EXPECT_FALSE(min.failing_run.ok());
}

TEST(ChaosOverload, BurstUnderPartitionShedsAndStillConverges) {
  // A hand-built script: the network splits, and while one side is cut off
  // an overload burst hammers an organization on the majority side. The
  // admission control must shed (bounded queues) yet every invariant —
  // including convergence after the heal — must still hold.
  Scenario scenario;
  scenario.seed = 4242;
  scenario.num_orgs = 4;
  scenario.num_clients = 4;
  scenario.policy = core::EndorsementPolicy{2, 4};
  scenario.duration = sim::Sec(8);
  scenario.quiesce = sim::Sec(20);
  scenario.tx_count = 24;
  scenario.liveness_checkable = false;  // partitions can defeat retries

  chaos::FaultEvent split;
  split.kind = FaultKind::kPartitionSplit;
  split.at = sim::Sec(1);
  split.groups = {0, 0, 0, 1, 0, 0, 1, 1};  // org 3 + clients 2,3 cut off
  scenario.events.push_back(split);
  chaos::FaultEvent burst;
  burst.kind = FaultKind::kOverloadBurst;
  burst.target = 0;
  burst.at = sim::Sec(2);
  burst.burst_txs = 256;
  burst.burst_window = sim::Ms(300);
  scenario.events.push_back(burst);
  chaos::FaultEvent heal;
  heal.kind = FaultKind::kPartitionHeal;
  heal.at = sim::Sec(5);
  scenario.events.push_back(heal);

  const ChaosRunResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << result.Summary() << "\n"
                           << ViolationText(result);
  EXPECT_GT(result.robustness.overload.TotalShed(), 0u) << result.Summary();
  EXPECT_GT(result.robustness.overload.busy_sent, 0u) << result.Summary();
  EXPECT_GT(result.committed, 0u) << result.Summary();
}

TEST(ChaosOverload, MinimizerStripsBurstDecoys) {
  // The unsafe configuration plus an overload-burst decoy: ddmin must handle
  // the new event kind and still reduce the script to the Byzantine phase.
  Scenario scenario = MakeUnsafeScenario(1);
  chaos::FaultEvent burst;
  burst.kind = FaultKind::kOverloadBurst;
  burst.target = 1;
  burst.at = sim::Sec(3);
  burst.burst_txs = 128;
  burst.burst_window = sim::Ms(200);
  scenario.events.push_back(burst);
  ASSERT_EQ(scenario.events.size(), 4u);

  const auto min = MinimizeScenario(scenario);
  EXPECT_TRUE(min.reproduced);
  ASSERT_EQ(min.minimized.events.size(), 1u);
  EXPECT_EQ(min.minimized.events[0].kind, FaultKind::kOrgByzantineOn);
}

TEST(ChaosCheckpoint, PresetSeedSweepHoldsInvariants) {
  // The two checkpoint presets over a small seed list: the invariant
  // checker (including checkpoint-integrity and the effective-commit-count
  // convergence check over pruned ledgers) must stay clean, and the
  // catch-up machinery must actually engage in every run.
  for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
    for (const Scenario& scenario : {chaos::MakeLongPartitionScenario(seed),
                                     chaos::MakeCrashRestartScenario(seed)}) {
      const ChaosRunResult result = RunScenario(scenario);
      EXPECT_TRUE(result.ok()) << result.Summary() << "\n"
                               << ViolationText(result) << scenario.Describe();
      EXPECT_GT(result.committed, 0u) << scenario.Describe();
      const core::CatchupStats& total = result.robustness.catchup;
      EXPECT_GT(total.ckpt_sealed, 0u) << scenario.Describe();
      EXPECT_GT(total.ckpt_installed, 0u) << scenario.Describe();
      EXPECT_GT(total.pruned_records, 0u) << scenario.Describe();
    }
  }
}

TEST(ChaosCheckpoint, PresetReplaysBitIdentically) {
  for (const Scenario& scenario : {chaos::MakeLongPartitionScenario(7),
                                   chaos::MakeCrashRestartScenario(7)}) {
    const ChaosRunResult first = RunScenario(scenario);
    const ChaosRunResult second = RunScenario(scenario);
    EXPECT_EQ(first.fingerprint, second.fingerprint) << scenario.Describe();
    EXPECT_EQ(first.org_chain_heads, second.org_chain_heads);
    EXPECT_EQ(first.events_processed, second.events_processed);
    EXPECT_EQ(first.robustness.catchup.ckpt_installed,
              second.robustness.catchup.ckpt_installed);
    EXPECT_EQ(first.robustness.catchup.pruned_records,
              second.robustness.catchup.pruned_records);
  }
}

TEST(ChaosByzantine, GeneratedByzantineScenariosEnableAttestedCheckpoints) {
  // The generator must arm the checkpoint layer whenever it draws a
  // Byzantine budget: those scenarios exist to exercise the q-of-n install
  // gate, and every Byzantine org must carry at least one checkpoint-layer
  // attack flag.
  std::size_t byzantine_seen = 0;
  for (std::uint64_t seed = 1; seed <= 64 && byzantine_seen < 8; ++seed) {
    const Scenario scenario = GenerateScenario(seed);
    if (scenario.byzantine_budget == 0) continue;
    ++byzantine_seen;
    EXPECT_TRUE(scenario.checkpoints) << scenario.Describe();
    EXPECT_LE(scenario.byzantine_budget,
              scenario.num_orgs - scenario.policy.q)
        << "budget exceeds attestation-liveness bound f <= n - q\n"
        << scenario.Describe();
    for (const chaos::FaultEvent& event : scenario.events) {
      if (event.kind != FaultKind::kOrgByzantineOn) continue;
      const core::ByzantineOrgBehavior& b = event.org_behavior;
      EXPECT_TRUE(b.forge_checkpoint || b.equivocate_checkpoint ||
                  b.dishonest_attest || b.withhold_attest ||
                  b.replay_stale_checkpoint || b.corrupt_delta)
          << scenario.Describe();
    }
  }
  EXPECT_GE(byzantine_seen, 8u) << "seed range drew too few Byzantine runs";
}

TEST(ChaosByzantine, SeededByzantineSweepHoldsInvariants) {
  // Generated Byzantine scenarios now run with quorum-attested checkpoints
  // on: the invariant checker (convergence, byzantine-quorum, and the
  // checkpoint-attestation install gate) must stay clean across a seed
  // sweep, and replays must stay bit-identical.
  std::size_t byzantine_run = 0;
  for (std::uint64_t seed = 1; seed <= 64 && byzantine_run < 6; ++seed) {
    const Scenario scenario = GenerateScenario(seed);
    if (scenario.byzantine_budget == 0) continue;
    ++byzantine_run;
    const ChaosRunResult result = RunScenario(scenario);
    EXPECT_TRUE(result.ok()) << result.Summary() << "\n"
                             << ViolationText(result) << scenario.Describe();
    EXPECT_GT(result.committed, 0u) << scenario.Describe();
    const ChaosRunResult replay = RunScenario(scenario);
    EXPECT_EQ(result.fingerprint, replay.fingerprint) << scenario.Describe();
  }
  EXPECT_GE(byzantine_run, 6u);
}

TEST(ChaosByzantine, ByzantineCatchupPresetMinimizerHandlesCheckpointAttacks) {
  // ddmin over a failing scenario that also contains a checkpoint-attack
  // event: the unsafe EP:{1 of 4} wrong-endorser still causes the failure,
  // and the minimizer must treat the forging org as a strippable decoy
  // while running with the attested checkpoint layer armed.
  Scenario scenario = MakeUnsafeScenario(1);
  chaos::FaultEvent ckpt_attack;
  ckpt_attack.kind = FaultKind::kOrgByzantineOn;
  ckpt_attack.at = sim::Ms(2);
  ckpt_attack.target = 2;
  ckpt_attack.org_behavior.active = true;
  ckpt_attack.org_behavior.ignore_proposal_prob = 0.0;
  ckpt_attack.org_behavior.wrong_endorse_prob = 0.0;
  ckpt_attack.org_behavior.ignore_commit_prob = 0.0;
  ckpt_attack.org_behavior.suppress_gossip = false;
  ckpt_attack.org_behavior.forge_checkpoint = true;
  scenario.events.push_back(ckpt_attack);
  scenario.checkpoints = true;

  const auto min = MinimizeScenario(scenario);
  EXPECT_TRUE(min.reproduced);
  EXPECT_LT(min.minimized.events.size(), scenario.events.size());
  EXPECT_FALSE(min.failing_run.ok());
}

TEST(ChaosSafe, SafePolicyWithSameByzantineOrgStaysClean) {
  // Same Byzantine behaviour, but under EP:{2 of 4} (q >= f+1 holds): the
  // wrong endorsements cannot assemble a quorum, so every invariant holds.
  Scenario scenario = MakeUnsafeScenario(1);
  scenario.policy = core::EndorsementPolicy{2, 4};
  const ChaosRunResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << ViolationText(result);
  EXPECT_GT(result.committed, 0u);
}

}  // namespace
}  // namespace orderless
