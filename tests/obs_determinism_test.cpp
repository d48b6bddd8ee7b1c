// The tracing subsystem's core guarantee: recording is outcome-neutral.
// A chaos scenario run traced must produce the same fingerprint, event
// count and per-organization chain heads as the same scenario untraced —
// the tracer only appends POD records, it never schedules events, draws
// randomness or influences a protocol decision.
#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "obs/trace.h"

namespace orderless {
namespace {

using chaos::ChaosRunResult;
using chaos::GenerateScenario;
using chaos::RunOptions;
using chaos::RunScenario;
using chaos::Scenario;

void ExpectIdenticalOutcome(const ChaosRunResult& untraced,
                            const ChaosRunResult& traced) {
  EXPECT_EQ(untraced.fingerprint, traced.fingerprint);
  EXPECT_EQ(untraced.events_processed, traced.events_processed);
  EXPECT_EQ(untraced.messages_sent, traced.messages_sent);
  EXPECT_EQ(untraced.bytes_sent, traced.bytes_sent);
  EXPECT_EQ(untraced.submitted, traced.submitted);
  EXPECT_EQ(untraced.committed, traced.committed);
  EXPECT_EQ(untraced.rejected, traced.rejected);
  EXPECT_EQ(untraced.failed, traced.failed);
  // Chain heads pinpoint a divergence per organization, not just that one
  // happened somewhere.
  ASSERT_EQ(untraced.org_chain_heads.size(), traced.org_chain_heads.size());
  for (std::size_t i = 0; i < untraced.org_chain_heads.size(); ++i) {
    EXPECT_EQ(untraced.org_chain_heads[i], traced.org_chain_heads[i])
        << "chain head diverged at org " << i;
  }
}

class TracedChaosSeed : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TracedChaosSeed, TracingIsOutcomeNeutral) {
  const Scenario scenario = GenerateScenario(GetParam());
  const ChaosRunResult untraced = RunScenario(scenario);

  obs::Tracer tracer;
  RunOptions options;
  options.tracer = &tracer;
  const ChaosRunResult traced = RunScenario(scenario, options);

  ExpectIdenticalOutcome(untraced, traced);
  // The traced run must actually have recorded the pipeline — a silently
  // disconnected tracer would make this test vacuous.
  EXPECT_FALSE(tracer.events().empty());
  EXPECT_GE(tracer.events().size(), traced.committed);
}

// Seeds chosen from the tier-2 chaos list so the scenarios include fault
// injection (partitions, crashes, Byzantine orgs), not just clean runs.
INSTANTIATE_TEST_SUITE_P(FaultScenarios, TracedChaosSeed,
                         testing::Values(1, 13, 42));

// Checkpoint-enabled scenarios add seal/install/prune work to the pipeline;
// recording those new event kinds must be just as outcome-neutral.
TEST(TracingDeterminismTest, CheckpointRunsAreOutcomeNeutral) {
  for (const Scenario& scenario :
       {chaos::MakeLongPartitionScenario(3), chaos::MakeCrashRestartScenario(3)}) {
    const ChaosRunResult untraced = RunScenario(scenario);

    obs::Tracer tracer;
    RunOptions options;
    options.tracer = &tracer;
    const ChaosRunResult traced = RunScenario(scenario, options);

    ExpectIdenticalOutcome(untraced, traced);
    const core::CatchupStats& a = untraced.robustness.catchup;
    const core::CatchupStats& b = traced.robustness.catchup;
    EXPECT_EQ(a.ckpt_sealed, b.ckpt_sealed);
    EXPECT_EQ(a.ckpt_installed, b.ckpt_installed);
    EXPECT_EQ(a.pruned_records, b.pruned_records);
    // The checkpoint lifecycle must actually appear in the recorded stream.
    bool saw_seal = false, saw_install = false;
    for (const obs::TraceEvent& e : tracer.events()) {
      saw_seal |= e.kind == obs::EventKind::kCkptSeal;
      saw_install |= e.kind == obs::EventKind::kCkptInstall;
    }
    EXPECT_TRUE(saw_seal) << scenario.Describe();
    EXPECT_TRUE(saw_install) << scenario.Describe();
  }
}

TEST(TracingDeterminismTest, KindFilteringIsAlsoOutcomeNeutral) {
  // A filtered tracer takes different branches in the recording hooks; the
  // simulated outcome still must not move.
  const Scenario scenario = GenerateScenario(8);
  const ChaosRunResult untraced = RunScenario(scenario);

  obs::TracerConfig config;
  config.kind_mask = obs::ParseKindMask("gossip_send,gossip_recv,validate");
  obs::Tracer tracer(config);
  RunOptions options;
  options.tracer = &tracer;
  const ChaosRunResult traced = RunScenario(scenario, options);

  ExpectIdenticalOutcome(untraced, traced);
  for (const obs::TraceEvent& e : tracer.events()) {
    EXPECT_TRUE(e.kind == obs::EventKind::kGossipSend ||
                e.kind == obs::EventKind::kGossipRecv ||
                e.kind == obs::EventKind::kValidate);
  }
}

TEST(TracingDeterminismTest, BufferOverflowIsAlsoOutcomeNeutral) {
  // Once the buffer cap is hit the tracer switches to count-and-drop; the
  // transition must be just as invisible to the simulation.
  const Scenario scenario = GenerateScenario(21);
  const ChaosRunResult untraced = RunScenario(scenario);

  obs::TracerConfig config;
  config.max_events = 64;
  obs::Tracer tracer(config);
  RunOptions options;
  options.tracer = &tracer;
  const ChaosRunResult traced = RunScenario(scenario, options);

  ExpectIdenticalOutcome(untraced, traced);
  EXPECT_EQ(tracer.events().size(), 64u);
  EXPECT_GT(tracer.dropped(), 0u);
}

TEST(TracingDeterminismTest, TracedRunsAreReplayable) {
  // Two traced runs of one scenario agree with each other bit for bit and
  // record identical event buffers.
  const Scenario scenario = GenerateScenario(34);

  obs::Tracer first_tracer;
  RunOptions first_options;
  first_options.tracer = &first_tracer;
  const ChaosRunResult first = RunScenario(scenario, first_options);

  obs::Tracer second_tracer;
  RunOptions second_options;
  second_options.tracer = &second_tracer;
  const ChaosRunResult second = RunScenario(scenario, second_options);

  ExpectIdenticalOutcome(first, second);
  ASSERT_EQ(first_tracer.events().size(), second_tracer.events().size());
  for (std::size_t i = 0; i < first_tracer.events().size(); ++i) {
    const obs::TraceEvent& a = first_tracer.events()[i];
    const obs::TraceEvent& b = second_tracer.events()[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.tx, b.tx);
    EXPECT_EQ(a.aux, b.aux);
    EXPECT_EQ(a.actor, b.actor);
    EXPECT_EQ(a.kind, b.kind);
    if (HasFailure()) break;  // one diverging record is enough detail
  }
}

}  // namespace
}  // namespace orderless
