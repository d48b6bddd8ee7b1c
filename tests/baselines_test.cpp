// Tests for the four baseline systems: Fabric (MVCC), FabricCRDT (merge),
// BIDL (sequencer + consensus) and Sync HotStuff (synchronous leader), plus
// the generic experiment harness.
#include <gtest/gtest.h>

#include "fabric/apps.h"
#include "fabric/net.h"
#include "fabriccrdt/apps.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "ordered/bidl.h"
#include "ordered/synchotstuff.h"

namespace orderless {
namespace {

using core::TxOutcome;

// ------------------------------------------------------------ world state

TEST(VersionedStore, VersionsAdvancePerKey) {
  fabric::VersionedStore store;
  EXPECT_EQ(store.VersionOf("k"), 0u);
  store.Put("k", crdt::Value(std::int64_t{1}));
  EXPECT_EQ(store.VersionOf("k"), 1u);
  store.Put("k", crdt::Value(std::int64_t{2}));
  EXPECT_EQ(store.VersionOf("k"), 2u);
  EXPECT_EQ(store.Get("k").value, crdt::Value(std::int64_t{2}));
  EXPECT_EQ(store.VersionOf("other"), 0u);
}

// ------------------------------------------------------- fabric contracts

TEST(FabricContracts, VotingProducesContendedRwSet) {
  fabric::VersionedStore store;
  fabric::FabricVotingContract contract;
  const auto result = contract.Invoke(
      store, "Vote", 42, 1,
      {crdt::Value("e1"), crdt::Value(std::int64_t{2}),
       crdt::Value(std::int64_t{8})});
  ASSERT_TRUE(result.ok) << result.error;
  // Reads the voter key and the shared tally key, writes both.
  ASSERT_EQ(result.rwset.reads.size(), 2u);
  ASSERT_EQ(result.rwset.writes.size(), 2u);
  EXPECT_EQ(result.rwset.reads[1].first,
            fabric::FabricVotingContract::CountKey("e1", 2));
}

TEST(FabricContracts, MvccConflictOnConcurrentVotes) {
  // Two voters for the same party endorsed against the same state: the
  // second transaction fails MVCC validation after the first commits.
  fabric::VersionedStore store;
  fabric::FabricVotingContract contract;
  const std::vector<crdt::Value> args = {
      crdt::Value("e1"), crdt::Value(std::int64_t{0}),
      crdt::Value(std::int64_t{4})};
  const auto tx1 = contract.Invoke(store, "Vote", 1, 1, args);
  const auto tx2 = contract.Invoke(store, "Vote", 2, 1, args);
  // Apply tx1.
  for (const auto& [key, value] : tx1.rwset.writes) store.Put(key, value);
  // tx2's read of the tally key is now stale.
  bool conflict = false;
  for (const auto& [key, version] : tx2.rwset.reads) {
    if (store.VersionOf(key) != version) conflict = true;
  }
  EXPECT_TRUE(conflict);
}

TEST(FabricContracts, AuctionTracksHighestBid) {
  fabric::VersionedStore store;
  fabric::FabricAuctionContract contract;
  auto bid = [&](std::uint64_t client, std::int64_t amount) {
    const auto result = contract.Invoke(
        store, "Bid", client, 1, {crdt::Value("a"), crdt::Value(amount)});
    ASSERT_TRUE(result.ok);
    for (const auto& [key, value] : result.rwset.writes) store.Put(key, value);
  };
  bid(1, 10);
  bid(2, 25);
  bid(1, 20);  // cumulative 30: new highest
  const auto read = contract.Invoke(store, "GetHighestBid", 9, 1,
                                    {crdt::Value("a")});
  EXPECT_EQ(read.value, crdt::Value(std::int64_t{30}));
}

TEST(FabricContracts, RejectsBadArguments) {
  fabric::VersionedStore store;
  fabric::FabricVotingContract voting;
  EXPECT_FALSE(voting.Invoke(store, "Vote", 1, 1, {}).ok);
  EXPECT_FALSE(voting
                   .Invoke(store, "Vote", 1, 1,
                           {crdt::Value("e"), crdt::Value(std::int64_t{9}),
                            crdt::Value(std::int64_t{4})})
                   .ok);
  fabric::FabricAuctionContract auction;
  EXPECT_FALSE(auction
                   .Invoke(store, "Bid", 1, 1,
                           {crdt::Value("a"), crdt::Value(std::int64_t{-1})})
                   .ok);
}

// --------------------------------------------------- fabriccrdt contracts

TEST(FabricCrdtContracts, ConcurrentVotesMergeWithoutLoss) {
  // The defining difference from Fabric: concurrent full-object states merge
  // instead of conflicting.
  fabric::VersionedStore store;
  fabriccrdt::FabricCrdtVotingContract contract;
  const std::vector<crdt::Value> vote0 = {
      crdt::Value("e1"), crdt::Value(std::int64_t{0}),
      crdt::Value(std::int64_t{4})};
  const std::vector<crdt::Value> vote1 = {
      crdt::Value("e1"), crdt::Value(std::int64_t{1}),
      crdt::Value(std::int64_t{4})};
  // Both clients execute against the same (empty) state.
  const auto tx1 = contract.Invoke(store, "Vote", 1, 1, vote0);
  const auto tx2 = contract.Invoke(store, "Vote", 2, 1, vote1);
  ASSERT_TRUE(tx1.ok);
  ASSERT_TRUE(tx2.ok);

  // Merge both via the CRDT object API (what the peer does at commit).
  const std::string key = fabriccrdt::FabricCrdtVotingContract::ElectionKey("e1");
  const std::string& s1 = tx1.rwset.writes[0].second.AsString();
  const std::string& s2 = tx2.rwset.writes[0].second.AsString();
  auto a = crdt::CrdtObject::DecodeState(
      key, BytesView(reinterpret_cast<const std::uint8_t*>(s1.data()),
                     s1.size()));
  auto b = crdt::CrdtObject::DecodeState(
      key, BytesView(reinterpret_cast<const std::uint8_t*>(s2.data()),
                     s2.size()));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->MergeState(*b);
  // Both votes survive the merge.
  EXPECT_EQ(a->Read({"party0"}).keys.size(), 2u);  // both voters wrote false/true
  EXPECT_EQ(a->Read({"party0", "voter1"}).values,
            (std::vector<crdt::Value>{crdt::Value(true)}));
  EXPECT_EQ(a->Read({"party1", "voter2"}).values,
            (std::vector<crdt::Value>{crdt::Value(true)}));
}

// -------------------------------------------------------- fabric pipeline

fabric::FabricNetConfig SmallFabricConfig(bool crdt_mode) {
  fabric::FabricNetConfig config;
  config.num_peers = 4;
  config.num_clients = 4;
  config.client.q = 2;
  config.client.require_matching_rwsets = !crdt_mode;
  config.peer.mode = crdt_mode ? fabric::ValidationMode::kCrdtMerge
                               : fabric::ValidationMode::kMvcc;
  config.orderer.block_timeout = sim::Ms(200);
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.seed = 3;
  return config;
}

TEST(FabricNet, VoteCommitsThroughOrderingService) {
  fabric::FabricNet net(SmallFabricConfig(false));
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();

  TxOutcome outcome;
  bool done = false;
  net.client(0).SubmitModify(
      "voting", "Vote",
      {crdt::Value("e1"), crdt::Value(std::int64_t{1}),
       crdt::Value(std::int64_t{4})},
      [&](const TxOutcome& o) {
        outcome = o;
        done = true;
      });
  net.simulation().RunUntil(sim::Sec(3));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(net.orderer().txs_ordered(), 1u);
  // Every peer validated and applied the block.
  for (std::size_t i = 0; i < net.peer_count(); ++i) {
    EXPECT_EQ(net.peer(i).committed_valid(), 1u) << i;
    EXPECT_EQ(net.peer(i)
                  .state()
                  .Get(fabric::FabricVotingContract::CountKey("e1", 1))
                  .value,
              crdt::Value(std::int64_t{1}));
  }
}

TEST(FabricNet, ConcurrentSamePartyVotesConflictViaMvcc) {
  fabric::FabricNet net(SmallFabricConfig(false));
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();

  int committed = 0;
  int rejected = 0;
  const std::vector<crdt::Value> args = {crdt::Value("e1"),
                                         crdt::Value(std::int64_t{0}),
                                         crdt::Value(std::int64_t{4})};
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify("voting", "Vote", args,
                               [&](const TxOutcome& o) {
                                 if (o.committed) ++committed;
                                 if (o.rejected) ++rejected;
                               });
  }
  net.simulation().RunUntil(sim::Sec(4));
  // All four endorsed against version 0 of the tally key; only one can pass
  // MVCC validation.
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(rejected, 3);
  // Peers agree on the final count.
  for (std::size_t i = 0; i < net.peer_count(); ++i) {
    EXPECT_EQ(net.peer(i)
                  .state()
                  .Get(fabric::FabricVotingContract::CountKey("e1", 0))
                  .value,
              crdt::Value(std::int64_t{1}));
  }
}

TEST(FabricNet, CrdtModeCommitsAllConcurrentVotes) {
  fabric::FabricNet net(SmallFabricConfig(true));
  net.RegisterContract(
      std::make_shared<fabriccrdt::FabricCrdtVotingContract>());
  net.Start();

  int committed = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify(
        "voting", "Vote",
        {crdt::Value("e1"), crdt::Value(static_cast<std::int64_t>(c % 4)),
         crdt::Value(std::int64_t{4})},
        [&](const TxOutcome& o) {
          if (o.committed) ++committed;
        });
  }
  net.simulation().RunUntil(sim::Sec(4));
  EXPECT_EQ(committed, 4);  // no MVCC, everything merges
  // All four votes visible on every peer.
  fabric::VersionedStore reference;
  fabriccrdt::FabricCrdtVotingContract contract;
  for (std::size_t i = 0; i < net.peer_count(); ++i) {
    std::int64_t total = 0;
    for (std::int64_t p = 0; p < 4; ++p) {
      const auto count = contract.Invoke(
          net.peer(i).state(), "ReadVoteCount", 0, 0,
          {crdt::Value("e1"), crdt::Value(p)});
      ASSERT_TRUE(count.ok);
      total += count.value.AsInt();
    }
    EXPECT_EQ(total, 4) << "peer " << i;
  }
}

TEST(FabricNet, LocklessValidationMatchesSerialVerdicts) {
  // The lockless committer (read checks spread across cores, two-phase
  // validate-then-apply) must reach the serial committer's verdicts and
  // final state: four concurrent votes on one tally key, of which the
  // first commits and the other three fail their read-version check.
  fabric::FabricNet net(SmallFabricConfig(false));
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();
  const std::vector<crdt::Value> args = {crdt::Value("e1"),
                                         crdt::Value(std::int64_t{0}),
                                         crdt::Value(std::int64_t{4})};
  int committed = 0;
  int rejected = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify("voting", "Vote", args,
                               [&](const TxOutcome& o) {
                                 if (o.committed) ++committed;
                                 if (o.rejected) ++rejected;
                               });
  }
  net.simulation().RunUntil(sim::Sec(4));
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(net.peer(0)
                .state()
                .Get(fabric::FabricVotingContract::CountKey("e1", 0))
                .value,
            crdt::Value(std::int64_t{1}));
}

TEST(FabricNet, LocklessIntraBlockDependencyVerdicts) {
  // Serial-equivalence of the write shadow: with every vote in one block,
  // the first passes and bumps the tally key's shadow version, so the rest
  // still fail exactly as the serial committer decides.
  auto config = SmallFabricConfig(false);
  config.orderer.block_size = 8;  // one block holds all four votes
  config.orderer.block_timeout = sim::Ms(400);
  fabric::FabricNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();
  int committed = 0;
  int rejected = 0;
  const std::vector<crdt::Value> args = {crdt::Value("e1"),
                                         crdt::Value(std::int64_t{0}),
                                         crdt::Value(std::int64_t{4})};
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify("voting", "Vote", args,
                               [&](const TxOutcome& o) {
                                 if (o.committed) ++committed;
                                 if (o.rejected) ++rejected;
                               });
  }
  net.simulation().RunUntil(sim::Sec(4));
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(rejected, 3);
  for (std::size_t i = 0; i < net.peer_count(); ++i) {
    EXPECT_EQ(net.peer(i)
                  .state()
                  .Get(fabric::FabricVotingContract::CountKey("e1", 0))
                  .value,
              crdt::Value(std::int64_t{1}));
  }
}

TEST(FabricNet, OrdererBatchesBySizeAndTimeout) {
  auto config = SmallFabricConfig(false);
  config.orderer.block_size = 2;
  fabric::FabricNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricAuctionContract>());
  net.Start();

  int committed = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    net.client(c).SubmitModify(
        "auction", "Bid",
        {crdt::Value("a" + std::to_string(c)), crdt::Value(std::int64_t{5})},
        [&](const TxOutcome& o) {
          if (o.committed) ++committed;
        });
  }
  net.simulation().RunUntil(sim::Sec(3));
  EXPECT_EQ(committed, 3);
  // 3 txs with block_size=2 → one full block plus one timeout block.
  EXPECT_EQ(net.orderer().blocks_cut(), 2u);
}

// --------------------------------------------------------------- BIDL

TEST(BidlNet, CommitsInSequenceOrderEverywhere) {
  ordered::BidlNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 4;
  config.bidl.consensus_interval = sim::Ms(100);
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.seed = 5;
  ordered::BidlNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();

  int committed = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify(
        "voting", "Vote",
        {crdt::Value("e1"), crdt::Value(static_cast<std::int64_t>(c)),
         crdt::Value(std::int64_t{4})},
        [&](const TxOutcome& o) {
          if (o.committed) ++committed;
        });
  }
  net.simulation().RunUntil(sim::Sec(3));
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(net.sequencer().sequenced(), 4u);
  // Ordered execution: every org holds the identical final state.
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    EXPECT_EQ(net.org(i).committed(), 4u) << i;
    for (std::int64_t p = 0; p < 4; ++p) {
      EXPECT_EQ(net.org(i)
                    .state()
                    .Get(fabric::FabricVotingContract::CountKey("e1", p))
                    .value,
                crdt::Value(std::int64_t{1}))
          << "org " << i << " party " << p;
    }
  }
}

TEST(BidlNet, ReadsServedByAssignedOrg) {
  ordered::BidlNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 1;
  config.bidl.consensus_interval = sim::Ms(100);
  config.net.one_way_latency = sim::Ms(5);
  config.seed = 5;
  ordered::BidlNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricAuctionContract>());
  net.Start();

  bool committed = false;
  net.client(0).SubmitModify(
      "auction", "Bid", {crdt::Value("a"), crdt::Value(std::int64_t{7})},
      [&](const TxOutcome& o) { committed = o.committed; });
  net.simulation().RunUntil(sim::Sec(2));
  ASSERT_TRUE(committed);

  crdt::Value value;
  net.client(0).SubmitRead("auction", "GetHighestBid", {crdt::Value("a")},
                           [&](const TxOutcome& o) { value = o.read_value; });
  net.simulation().RunUntil(sim::Sec(3));
  EXPECT_EQ(value, crdt::Value(std::int64_t{7}));
}

// ------------------------------------------------------- Sync HotStuff

TEST(HsNet, LeaderRoundsCommitAfterTwoDelta) {
  ordered::HsNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 2;
  config.hs.round_interval = sim::Ms(100);
  config.hs.delta = sim::Ms(50);
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.seed = 9;
  ordered::HsNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.Start();

  TxOutcome outcome;
  bool done = false;
  net.client(0).SubmitModify(
      "voting", "Vote",
      {crdt::Value("e1"), crdt::Value(std::int64_t{0}),
       crdt::Value(std::int64_t{4})},
      [&](const TxOutcome& o) {
        outcome = o;
        done = true;
      });
  net.simulation().RunUntil(sim::Sec(3));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed);
  // Latency must include the synchronous 2Δ wait.
  EXPECT_GT(outcome.latency, 2 * config.hs.delta);
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    EXPECT_GE(net.org(i).committed_blocks(), 1u) << i;
  }
}

TEST(HsNet, StateConvergesAcrossOrgs) {
  ordered::HsNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 4;
  config.hs.round_interval = sim::Ms(100);
  config.hs.delta = sim::Ms(50);
  config.net.one_way_latency = sim::Ms(5);
  config.seed = 10;
  ordered::HsNet net(config);
  net.RegisterContract(std::make_shared<fabric::FabricAuctionContract>());
  net.Start();

  int committed = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    net.client(c).SubmitModify(
        "auction", "Bid",
        {crdt::Value("a"), crdt::Value(static_cast<std::int64_t>(5 + c))},
        [&](const TxOutcome& o) {
          if (o.committed) ++committed;
        });
  }
  net.simulation().RunUntil(sim::Sec(3));
  EXPECT_EQ(committed, 4);
  const auto high =
      net.org(0).state().Get(fabric::FabricAuctionContract::HighestKey("a"));
  for (std::size_t i = 1; i < net.org_count(); ++i) {
    EXPECT_EQ(net.org(i)
                  .state()
                  .Get(fabric::FabricAuctionContract::HighestKey("a"))
                  .value,
              high.value)
        << i;
  }
}

// --------------------------------------------------- experiment harness

TEST(Harness, RunExperimentAllSystems) {
  // Every system's simulated result, pinned exactly: a refactor that moves
  // any send, timer or RNG draw of a system changes at least one of these,
  // and a cost-table drift that moves one Table 3 phase changes its row.
  struct Pinned {
    harness::SystemKind system;
    std::uint64_t events_processed;
    std::uint64_t committed_modify;
    std::uint64_t committed_read;
    std::uint64_t failed;
    std::uint64_t combined_latency_sum_us;
    std::vector<std::pair<std::string, double>> phases;  // ms
  };
  const Pinned pinned[] = {
      {harness::SystemKind::kOrderless, 1865, 52, 48, 0, 15888611,
       {{"P1/Execution", 0.14393142276422766},
        {"P2/Commit", 1.6014519230769229}}},
      {harness::SystemKind::kFabric, 996, 46, 48, 6, 30599509,
       {{"P1/Endorse", 0.25},
        {"P2/Consensus", 391.03957692307694},
        {"P3/Commit", 1.3180384615384615}}},
      {harness::SystemKind::kFabricCrdt, 996, 52, 48, 0, 33669522,
       {{"P1/Endorse", 0.25},
        {"P2/Consensus", 394.87801923076921},
        {"P3/Commit", 4.1236538461538466}}},
      {harness::SystemKind::kBidl, 765, 52, 48, 0, 27511171,
       {{"P1/Sequence", 103.66108888888888},
        {"P2/Consensus", 276.55863611111113},
        {"P3/Execution", 0.61444444444444446},
        {"P4/Commit", 0.0}}},
      {harness::SystemKind::kSyncHotStuff, 704, 52, 48, 0, 33070156,
       {{"P1/Consensus", 488.03264999999999},
        {"P2/Commit", 0.41222222222222227}}},
  };
  for (const Pinned& want : pinned) {
    SCOPED_TRACE(harness::SystemName(want.system));
    harness::ExperimentConfig config;
    config.system = want.system;
    config.app = harness::AppKind::kVoting;
    config.num_orgs = 4;
    config.policy = core::EndorsementPolicy{2, 4};
    config.workload.arrival_tps = 50;
    config.workload.duration = sim::Sec(2);
    config.workload.drain = sim::Sec(8);
    config.workload.num_clients = 20;
    config.seed = 21;
    const auto result = harness::RunExperiment(config);
    obs::Histogram combined(obs::Histogram::DefaultLatencyBoundsUs());
    result.metrics.combined_latency.FillHistogram(combined);
    EXPECT_EQ(result.events_processed, want.events_processed);
    EXPECT_EQ(result.metrics.committed_modify, want.committed_modify);
    EXPECT_EQ(result.metrics.committed_read, want.committed_read);
    EXPECT_EQ(result.metrics.failed, want.failed);
    EXPECT_EQ(combined.sum_us(), want.combined_latency_sum_us);
    ASSERT_EQ(result.breakdown.phases.size(), want.phases.size());
    for (std::size_t i = 0; i < want.phases.size(); ++i) {
      EXPECT_EQ(result.breakdown.phases[i].first, want.phases[i].first);
      EXPECT_DOUBLE_EQ(result.breakdown.phases[i].second,
                       want.phases[i].second)
          << want.phases[i].first;
    }
  }
}

TEST(Harness, SyntheticExperimentRecordsBothKinds) {
  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kOrderless;
  config.app = harness::AppKind::kSynthetic;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 100;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(5);
  config.workload.num_clients = 20;
  config.workload.modify_fraction = 0.5;
  const auto result = harness::RunExperiment(config);
  EXPECT_GT(result.metrics.committed_modify, 0u);
  EXPECT_GT(result.metrics.committed_read, 0u);
  EXPECT_GT(result.metrics.ThroughputTps(), 50.0);
  // Reads are one protocol round, modifies two.
  EXPECT_LT(result.metrics.read_latency.AverageMs(),
            result.metrics.modify_latency.AverageMs());
}

TEST(Harness, MetricsPercentiles) {
  harness::LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.Record(sim::Ms(i));
  EXPECT_NEAR(recorder.AverageMs(), 50.5, 0.01);
  EXPECT_NEAR(recorder.PercentileMs(1), 2.0, 1.1);
  EXPECT_NEAR(recorder.PercentileMs(99), 99.0, 1.1);
  EXPECT_EQ(recorder.count(), 100u);
}

}  // namespace
}  // namespace orderless
