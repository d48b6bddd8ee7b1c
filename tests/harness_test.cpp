// Tests for the benchmark harness itself: metrics math, throughput series,
// table rendering, workload accounting, and the Byzantine-phase scheduler.
#include <gtest/gtest.h>

#include "contracts/voting.h"
#include "harness/experiment.h"
#include "harness/orderless_net.h"
#include "harness/table.h"
#include "obs/metrics.h"

namespace orderless::harness {
namespace {

TEST(ThroughputSeriesTest, BucketsPerSecond) {
  ThroughputSeries series;
  series.Record(sim::Ms(100));
  series.Record(sim::Ms(900));
  series.Record(sim::Ms(1500));
  series.Record(sim::Ms(2100));
  series.Record(sim::Ms(2200));
  series.Record(sim::Ms(2300));
  const auto per_second = series.PerSecond(sim::Sec(4));
  ASSERT_EQ(per_second.size(), 4u);
  EXPECT_EQ(per_second[0], 2.0);
  EXPECT_EQ(per_second[1], 1.0);
  EXPECT_EQ(per_second[2], 3.0);
  EXPECT_EQ(per_second[3], 0.0);
}

TEST(MetricsTest, ThroughputUsesCommitWindow) {
  ExperimentMetrics metrics;
  metrics.committed_modify = 90;
  metrics.committed_read = 10;
  metrics.first_commit = sim::Sec(1);
  metrics.last_commit = sim::Sec(11);
  EXPECT_NEAR(metrics.ThroughputTps(), 10.0, 1e-9);

  ExperimentMetrics empty;
  EXPECT_EQ(empty.ThroughputTps(), 0.0);
}

TEST(MetricsTest, MeanHelper) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_NEAR(Mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
}

/// Expects `registry` to hold every counter `Stats` lists, each equal to the
/// sum of that member over `stats(0) .. stats(n - 1)`.
template <typename Stats, typename Get>
void ExpectSummedCounters(obs::MetricsRegistry& registry, std::size_t n,
                          Get stats) {
  for (const NamedCounter<Stats>& c : Stats::kCounters) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += stats(i).*c.member;
    EXPECT_EQ(registry.counter(c.name).value(), sum) << c.name;
  }
}

TEST(MetricsTest, RegistryCarriesEveryCounterSummedOverOrgsAndClients) {
  // A checkpointed run under overload: admission sheds and Busy replies,
  // client retries, and checkpoint seals all move.
  OrderlessNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 8;
  config.policy = core::EndorsementPolicy{2, 4};
  config.seed = 11;
  config.org_timing.antientropy_interval = sim::Ms(300);
  config.org_timing.checkpoint.interval = sim::Ms(300);
  config.org_timing.overload.enabled = true;
  config.org_timing.overload.max_backlog_endorse = sim::Us(200);
  config.org_timing.overload.max_backlog_gossip = sim::Us(200);
  config.client_timing.max_attempts = 6;
  config.client_timing.backoff_base = sim::Ms(5);
  config.client_timing.backoff_cap = sim::Ms(200);
  config.client_timing.breaker_threshold = 3;
  OrderlessNet net(config);
  net.RegisterContract(std::make_shared<contracts::VotingContract>());
  net.Start();
  for (std::size_t round = 0; round < 12; ++round) {
    for (std::size_t c = 0; c < net.client_count(); ++c) {
      const std::vector<crdt::Value> args = {
          crdt::Value("e"), crdt::Value(static_cast<std::int64_t>(c % 4)),
          crdt::Value(std::int64_t{4})};
      net.simulation().ScheduleFor(
          net.client_actor(c), sim::Ms(100) * round, [&net, c, args] {
            net.client(c).SubmitModify("voting", "Vote", args,
                                       [](const core::TxOutcome&) {});
          });
    }
  }
  net.simulation().RunUntil(sim::Sec(8));

  const RobustnessStats robustness = net.Robustness();
  obs::MetricsRegistry registry;
  robustness.FillRegistry(registry);
  const std::size_t listed = std::size(core::OverloadStats::kCounters) +
                             std::size(core::ClientRetryStats::kCounters) +
                             std::size(core::CatchupStats::kCounters);
  EXPECT_EQ(registry.size(), listed);

  ExpectSummedCounters<core::OverloadStats>(
      registry, net.org_count(),
      [&net](std::size_t i) { return net.org(i).overload_stats(); });
  ExpectSummedCounters<core::CatchupStats>(
      registry, net.org_count(),
      [&net](std::size_t i) { return net.org(i).catchup_stats(); });
  ExpectSummedCounters<core::ClientRetryStats>(
      registry, net.client_count(),
      [&net](std::size_t i) { return net.client(i).retry_stats(); });
  // Each lookup above found an exported counter instead of adding one.
  EXPECT_EQ(registry.size(), listed);
  // The run moved what it was built to move, so the sums are not all zero.
  EXPECT_GT(robustness.overload.TotalShed(), 0u);
  EXPECT_GT(robustness.retry.retries, 0u);
  EXPECT_GT(robustness.catchup.ckpt_sealed, 0u);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(1000, 0), "1000");
}

TEST(NamesTest, SystemAndAppNames) {
  EXPECT_EQ(SystemName(SystemKind::kOrderless), "OrderlessChain");
  EXPECT_EQ(SystemName(SystemKind::kFabric), "Fabric");
  EXPECT_EQ(SystemName(SystemKind::kFabricCrdt), "FabricCRDT");
  EXPECT_EQ(SystemName(SystemKind::kBidl), "BIDL");
  EXPECT_EQ(SystemName(SystemKind::kSyncHotStuff), "SyncHotStuff");
  EXPECT_EQ(AppName(AppKind::kSynthetic), "synthetic");
  EXPECT_EQ(AppName(AppKind::kVoting), "voting");
  EXPECT_EQ(AppName(AppKind::kAuction), "auction");
}

TEST(ExperimentTest, SubmissionAccountingBalances) {
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kVoting;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 100;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(10);
  config.workload.num_clients = 10;
  config.seed = 77;
  const auto result = RunExperiment(config);
  EXPECT_EQ(result.metrics.submitted, 200u);
  EXPECT_EQ(result.metrics.committed_modify + result.metrics.committed_read +
                result.metrics.failed,
            result.metrics.submitted);
  EXPECT_EQ(result.metrics.failed, 0u);
}

TEST(ExperimentTest, ByzantinePhaseScheduleReducesThroughput) {
  auto run = [](bool with_faults) {
    ExperimentConfig config;
    config.system = SystemKind::kOrderless;
    config.app = AppKind::kSynthetic;
    config.num_orgs = 8;
    config.policy = core::EndorsementPolicy{4, 8};
    config.workload.arrival_tps = 200;
    config.workload.duration = sim::Sec(4);
    config.workload.drain = sim::Sec(10);
    config.workload.num_clients = 50;
    config.seed = 13;
    if (with_faults) {
      config.byzantine_phases = {{sim::Sec(0), 3}};
      config.byzantine_org_behavior.ignore_proposal_prob = 1.0;
      config.byzantine_org_behavior.ignore_commit_prob = 1.0;
    }
    return RunExperiment(config).metrics;
  };
  const auto healthy = run(false);
  const auto faulty = run(true);
  EXPECT_EQ(healthy.failed, 0u);
  EXPECT_GT(faulty.failed, 0u);
  EXPECT_LT(faulty.committed_modify + faulty.committed_read,
            healthy.committed_modify + healthy.committed_read);
}

TEST(ExperimentTest, ByzantineClientFractionAboveOneMarksEveryClient) {
  // The fraction is capped at the client count: every client tampers its
  // write-sets, so every Modify is rejected and every read still commits.
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kVoting;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 50;
  config.workload.duration = sim::Sec(2);
  config.workload.num_clients = 10;
  config.byzantine_client_fraction = 2.0;
  config.byzantine_client_behavior.active = true;
  config.byzantine_client_behavior.tamper_writeset = true;
  const auto result = RunExperiment(config);
  EXPECT_EQ(result.metrics.submitted, 100u);
  EXPECT_EQ(result.metrics.committed_modify, 0u);
  EXPECT_EQ(result.metrics.committed_read + result.metrics.rejected,
            result.metrics.submitted);
}

TEST(ExperimentTest, AveragedPointRunsMultipleSeeds) {
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kVoting;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 80;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(8);
  config.workload.num_clients = 10;
  config.seed = 3;
  const AveragedPoint p = RunAveraged(config, 2);
  EXPECT_GT(p.throughput_tps, 40.0);
  EXPECT_GT(p.modify_avg_ms, 0.0);
  EXPECT_GT(p.read_avg_ms, 0.0);
  EXPECT_LT(p.read_avg_ms, p.modify_avg_ms);
  EXPECT_EQ(p.failed_fraction, 0.0);
}

}  // namespace
}  // namespace orderless::harness
