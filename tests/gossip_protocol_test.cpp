// Focused tests of the lazy-push gossip protocol: adverts carry ids only,
// peers pull exactly what they miss, duplicate pulls are suppressed, and
// traffic stays proportional to missing transactions even at high fanout.
#include <gtest/gtest.h>

#include "contracts/voting.h"
#include "harness/orderless_net.h"

namespace orderless {
namespace {

using core::TxOutcome;

harness::OrderlessNetConfig GossipConfig(std::uint32_t fanout) {
  harness::OrderlessNetConfig config;
  config.num_orgs = 8;
  config.num_clients = 4;
  config.policy = core::EndorsementPolicy{2, 8};
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.org_timing.gossip_interval = sim::Ms(200);
  config.org_timing.gossip_fanout = fanout;
  config.org_timing.gossip_rounds = 4;
  config.seed = 64;
  return config;
}

std::uint64_t RunWorkload(harness::OrderlessNet& net, int txs) {
  int committed = 0;
  for (int i = 0; i < txs; ++i) {
    net.client(i % net.client_count())
        .SubmitModify("voting", "Vote",
                      {crdt::Value("e"),
                       crdt::Value(static_cast<std::int64_t>(i % 4)),
                       crdt::Value(std::int64_t{4})},
                      [&committed](const TxOutcome& o) {
                        if (o.committed) ++committed;
                      });
    net.simulation().RunUntil(net.simulation().now() + sim::Ms(50));
  }
  net.simulation().RunUntil(net.simulation().now() + sim::Sec(10));
  EXPECT_EQ(committed, txs);
  return net.network().bytes_sent();
}

TEST(GossipProtocol, HighFanoutCostsIdsNotPayloads) {
  // With lazy push, fanout 7 re-advertises ids widely but each organization
  // pulls every transaction body at most a few times; total traffic must
  // stay within a small factor of fanout 1, not multiply by ~7.
  auto low = std::make_unique<harness::OrderlessNet>(GossipConfig(1));
  low->RegisterContract(std::make_shared<contracts::VotingContract>());
  low->Start();
  const std::uint64_t bytes_low = RunWorkload(*low, 30);

  auto high = std::make_unique<harness::OrderlessNet>(GossipConfig(7));
  high->RegisterContract(std::make_shared<contracts::VotingContract>());
  high->Start();
  const std::uint64_t bytes_high = RunWorkload(*high, 30);

  EXPECT_LT(static_cast<double>(bytes_high),
            3.0 * static_cast<double>(bytes_low))
      << "high fanout must not multiply payload traffic";
}

TEST(GossipProtocol, EveryOrgCommitsExactlyOnceAtHighFanout) {
  // Aggressive re-advertising from every organization must never cause
  // double-commits: pulls are deduplicated and commits are idempotent.
  auto net = std::make_unique<harness::OrderlessNet>(GossipConfig(7));
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->Start();
  RunWorkload(*net, 20);
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), 20u) << "org " << i;
    EXPECT_EQ(net->org(i).ledger().log().total_appended(), 20u) << "org " << i;
  }
}

TEST(GossipProtocol, PartitionHealConvergesBothSides) {
  // Split the network into two halves that each keep >= q organizations,
  // commit on both sides, then heal: gossip + anti-entropy must spread every
  // transaction to every organization.
  auto config = GossipConfig(3);
  config.org_timing.antientropy_interval = sim::Sec(1);
  auto net = std::make_unique<harness::OrderlessNet>(config);
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->Start();

  // Orgs 0-3 + clients 0,1 on side A; orgs 4-7 + clients 2,3 on side B.
  for (std::size_t i = 0; i < 8; ++i) {
    net->network().SetPartition(net->org_node(i), i < 4 ? 1 : 2);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    net->network().SetPartition(net->client_node(c), c < 2 ? 1 : 2);
  }

  // Clients only reach their own side, so with max_attempts=1 some
  // submissions die on endorse timeouts; count what commits per side.
  int committed = 0;
  auto count = [&committed](const TxOutcome& o) {
    if (o.committed) ++committed;
  };
  for (int i = 0; i < 16; ++i) {
    net->client(i % 4).SubmitModify(
        "voting", "Vote",
        {crdt::Value("e"), crdt::Value(static_cast<std::int64_t>(i % 4)),
         crdt::Value(std::int64_t{4})},
        count);
    net->simulation().RunUntil(net->simulation().now() + sim::Ms(200));
  }
  net->simulation().RunUntil(net->simulation().now() + sim::Sec(8));
  EXPECT_GT(committed, 0) << "some transactions must commit mid-partition";

  // Mid-partition, the two sides must have diverged: at least one side is
  // missing commits from the other.
  std::uint64_t side_a = 0, side_b = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    side_a = std::max(side_a, net->org(i).ledger().committed_valid());
  }
  for (std::size_t i = 4; i < 8; ++i) {
    side_b = std::max(side_b, net->org(i).ledger().committed_valid());
  }
  const std::uint64_t total_committed = static_cast<std::uint64_t>(committed);
  EXPECT_LT(side_a, total_committed);
  EXPECT_LT(side_b, total_committed);

  net->network().HealPartitions();
  net->simulation().RunUntil(net->simulation().now() + sim::Sec(20));

  // After healing, every organization holds every commit and identical state.
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), total_committed)
        << "org " << i;
    EXPECT_TRUE(net->org(i).ledger().log().Verify()) << "org " << i;
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(
        net->StateConverged(contracts::VotingContract::PartyObject("e", p)))
        << "party " << p;
  }
}

TEST(GossipProtocol, SuppressedGossipStillServesClientReceipts) {
  // A Byzantine organization that withholds gossip must still answer the
  // clients that commit directly at it.
  auto net = std::make_unique<harness::OrderlessNet>(GossipConfig(3));
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->Start();
  core::ByzantineOrgBehavior mute;
  mute.active = true;
  mute.ignore_proposal_prob = 0.0;
  mute.wrong_endorse_prob = 0.0;
  mute.ignore_commit_prob = 0.0;
  mute.suppress_gossip = true;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    net->org(i).SetByzantine(mute);  // nobody gossips at all
  }
  int committed = 0;
  net->client(0).SubmitModify("voting", "Vote",
                              {crdt::Value("e"), crdt::Value(std::int64_t{1}),
                               crdt::Value(std::int64_t{4})},
                              [&committed](const TxOutcome& o) {
                                if (o.committed) ++committed;
                              });
  net->simulation().RunUntil(sim::Sec(5));
  EXPECT_EQ(committed, 1);  // q receipts from the directly contacted orgs
  // And only the q=2 contacted organizations have it (no gossip).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    total += net->org(i).ledger().committed_valid();
  }
  EXPECT_EQ(total, 2u);
}

TEST(GossipProtocol, DroppedPullIsRetriedToAdvertiser) {
  // A pull request lost on the wire must not orphan the transaction: the
  // puller re-sends the pull to the recorded advertiser after a couple of
  // gossip ticks, even when the id is never re-advertised (gossip_rounds=1)
  // and anti-entropy is effectively disabled.
  auto config = GossipConfig(3);
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.org_timing.gossip_rounds = 1;
  config.org_timing.antientropy_interval = sim::Sec(60);
  auto net = std::make_unique<harness::OrderlessNet>(config);
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->Start();

  // A partial-commit Byzantine client leaves the transaction at exactly one
  // organization; gossip alone must spread it.
  core::ByzantineClientBehavior partial;
  partial.active = true;
  partial.partial_commit = true;
  net->client(0).SetByzantine(partial);
  net->client(0).SubmitModify("voting", "Vote",
                              {crdt::Value("e"), crdt::Value(std::int64_t{1}),
                               crdt::Value(std::int64_t{4})},
                              [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Ms(150));  // committed; first advert is due
                                             // at the 200ms gossip tick
  std::size_t owner = net->org_count();
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    if (net->org(i).ledger().committed_valid() == 1) owner = i;
  }
  ASSERT_LT(owner, net->org_count());

  // Every pull request towards the owner is dropped until t=900ms. The
  // adverts (owner -> peer) and the eventual push replies still flow.
  sim::LinkFault drop_all;
  drop_all.drop_probability = 1.0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    if (i != owner) {
      net->network().SetLinkFault(net->org_node(i), net->org_node(owner),
                                  drop_all);
    }
  }
  net->simulation().RunUntil(sim::Ms(900));
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    if (i != owner) {
      net->network().ClearLinkFault(net->org_node(i), net->org_node(owner));
    }
  }

  // The pending-pull retry (every 2 gossip ticks, up to 3 times) repairs
  // the loss; without it the single advert round would leave three
  // organizations orphaned forever.
  net->simulation().RunUntil(sim::Sec(5));
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), 1u) << "org " << i;
  }
}

}  // namespace
}  // namespace orderless
