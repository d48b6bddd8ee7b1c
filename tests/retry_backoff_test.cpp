// Overload-protection client behaviour: decorrelated-jitter backoff is
// deterministic per seed, the per-organization circuit breaker opens and
// recovers through a half-open probe, Busy backpressure turns into delayed
// retries, and commit re-sends are answered from the commit index without
// double-applying CRDT operations.
#include <gtest/gtest.h>

#include "contracts/voting.h"
#include "harness/orderless_net.h"

namespace orderless {
namespace {

using core::TxOutcome;

harness::OrderlessNetConfig BaseConfig(std::uint32_t orgs = 4,
                                       std::uint32_t q = 2,
                                       std::uint32_t clients = 2) {
  harness::OrderlessNetConfig config;
  config.num_orgs = orgs;
  config.num_clients = clients;
  config.policy = core::EndorsementPolicy{q, orgs};
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.3;
  config.org_timing.gossip_interval = sim::Ms(200);
  config.org_timing.gossip_fanout = orgs - 1;
  config.seed = 777;
  return config;
}

std::unique_ptr<harness::OrderlessNet> MakeNet(
    harness::OrderlessNetConfig config) {
  auto net = std::make_unique<harness::OrderlessNet>(config);
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->Start();
  return net;
}

std::vector<crdt::Value> VoteArgs(std::int64_t party) {
  return {crdt::Value("e"), crdt::Value(party), crdt::Value(std::int64_t{4})};
}

core::ByzantineOrgBehavior SilentOrg() {
  core::ByzantineOrgBehavior silent;
  silent.active = true;
  silent.ignore_proposal_prob = 1.0;
  return silent;
}

TEST(RetryBackoff, BackoffedRetryIsDeterministicPerSeed) {
  // One silent organization forces endorse timeouts and backoffed retries;
  // the same seed must reproduce the exact same retry schedule and latency.
  auto run = [](std::uint64_t seed) {
    auto config = BaseConfig();
    config.seed = seed;
    config.client_timing.endorse_timeout = sim::Ms(300);
    config.client_timing.max_attempts = 6;
    config.client_timing.backoff_base = sim::Ms(50);
    config.client_timing.backoff_cap = sim::Ms(400);
    auto net = MakeNet(config);
    net->org(0).SetByzantine(SilentOrg());
    TxOutcome outcome;
    bool done = false;
    net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                                [&](const TxOutcome& o) {
                                  outcome = o;
                                  done = true;
                                });
    net->simulation().RunUntil(sim::Sec(10));
    EXPECT_TRUE(done);
    EXPECT_TRUE(outcome.committed);
    return std::pair<sim::SimTime, std::uint64_t>(
        outcome.latency, net->client(0).retry_stats().retries);
  };
  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(RetryBackoff, BreakerOpensAndHalfOpenProbeRecoversHealedOrg) {
  auto config = BaseConfig(4, 2, 1);
  config.client_timing.endorse_timeout = sim::Ms(300);
  config.client_timing.max_attempts = 4;
  config.client_timing.backoff_base = sim::Ms(20);
  config.client_timing.backoff_cap = sim::Ms(100);
  config.client_timing.breaker_threshold = 2;
  config.client_timing.breaker_cooldown = sim::Sec(2);
  auto net = MakeNet(config);
  auto& client = net->client(0);
  net->org(0).SetByzantine(SilentOrg());

  // Enough sequential submissions that selection hits org 0 at least twice:
  // two consecutive timeout charges open its breaker.
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    client.SubmitModify("voting", "Vote", VoteArgs(i % 4),
                        [&](const TxOutcome& o) {
                          if (o.committed) ++committed;
                        });
    net->simulation().RunUntil(net->simulation().now() + sim::Sec(2));
  }
  EXPECT_EQ(committed, 10);  // q=2 of the 3 healthy orgs always suffices
  EXPECT_GE(client.retry_stats().breaker_opens, 1u);
  // Open, or already probing again (the view turns half-open once the
  // cooldown expires) — but certainly not trusted.
  EXPECT_NE(client.breaker_state(0), core::BreakerState::kClosed);

  // The organization heals. Once the (possibly escalated, at most 8x)
  // cooldown expires the breaker half-opens, and a probe request must carry
  // it back to closed — unlike the permanent `suspected_` verdict, recovery
  // is observable.
  net->org(0).SetByzantine(core::ByzantineOrgBehavior{});
  net->simulation().RunUntil(net->simulation().now() + sim::Sec(20));
  EXPECT_EQ(client.breaker_state(0), core::BreakerState::kHalfOpen);
  for (int i = 0; i < 6; ++i) {
    client.SubmitModify("voting", "Vote", VoteArgs(i % 4),
                        [](const TxOutcome&) {});
    net->simulation().RunUntil(net->simulation().now() + sim::Sec(1));
  }
  EXPECT_GE(client.retry_stats().half_open_probes, 1u);
  EXPECT_GE(client.retry_stats().breaker_closes, 1u);
  EXPECT_EQ(client.breaker_state(0), core::BreakerState::kClosed);
}

TEST(RetryBackoff, BusyBackpressureDelaysRetryUntilCommit) {
  // Two clients race proposals into two organizations whose admission
  // ceiling is below one execution's service time: someone gets a Busy,
  // backs off past the retry-after hint, and still commits.
  auto config = BaseConfig(2, 2, 2);
  config.org_timing.overload.enabled = true;
  config.org_timing.overload.max_backlog_endorse = sim::Us(50);
  config.org_timing.overload.max_backlog_gossip = sim::Us(50);
  config.client_timing.endorse_timeout = sim::Ms(500);
  config.client_timing.max_attempts = 10;
  config.client_timing.backoff_base = sim::Ms(5);
  config.client_timing.backoff_cap = sim::Ms(100);
  auto net = MakeNet(config);

  int committed = 0;
  auto count = [&committed](const TxOutcome& o) {
    if (o.committed) ++committed;
  };
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(0), count);
  net->client(1).SubmitModify("voting", "Vote", VoteArgs(1), count);
  net->simulation().RunUntil(sim::Sec(10));

  EXPECT_EQ(committed, 2);
  std::uint64_t busy_received = 0;
  for (std::size_t c = 0; c < net->client_count(); ++c) {
    busy_received += net->client(c).retry_stats().busy_received;
  }
  std::uint64_t busy_sent = 0, shed_endorse = 0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    busy_sent += net->org(i).overload_stats().busy_sent;
    shed_endorse += net->org(i).overload_stats().shed_endorse;
  }
  EXPECT_GT(busy_sent, 0u);
  EXPECT_GT(shed_endorse, 0u);
  EXPECT_GT(busy_received, 0u);
}

TEST(RetryBackoff, CommitResendGetsReceiptWithoutDoubleApply) {
  // The transaction commits at the organizations but every receipt is lost
  // for a while: the client must re-send the assembled transaction, the
  // organizations must answer the duplicates from their commit index, and
  // the CRDT operations must be applied exactly once everywhere.
  auto config = BaseConfig(4, 2, 1);
  config.client_timing.commit_timeout = sim::Ms(150);
  config.client_timing.max_attempts = 8;
  config.client_timing.backoff_base = sim::Ms(20);
  config.client_timing.backoff_cap = sim::Ms(100);
  auto net = MakeNet(config);

  TxOutcome outcome;
  bool done = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(2),
                              [&](const TxOutcome& o) {
                                outcome = o;
                                done = true;
                              });
  // Endorsement completes by ~11ms and the commit messages are in flight;
  // from 13ms on, drop every org→client message so all receipts vanish.
  net->simulation().RunUntil(sim::Ms(13));
  ASSERT_FALSE(done);
  sim::LinkFault drop_all;
  drop_all.drop_probability = 1.0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    net->network().SetLinkFault(net->org_node(i), net->client_node(0),
                                drop_all);
  }
  net->simulation().RunUntil(sim::Ms(450));
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    net->network().ClearLinkFault(net->org_node(i), net->client_node(0));
  }
  net->simulation().RunUntil(sim::Sec(8));

  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed);
  EXPECT_GE(net->client(0).retry_stats().commit_resends, 1u);
  // Exactly one ledger entry per organization despite the duplicate
  // CommitMsg deliveries, and the vote counted exactly once.
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), 1u) << "org " << i;
    EXPECT_EQ(net->org(i).ledger().log().total_appended(), 1u) << "org " << i;
  }
  EXPECT_TRUE(net->StateConverged(
      contracts::VotingContract::PartyObject("e", 2)));
}

}  // namespace
}  // namespace orderless
