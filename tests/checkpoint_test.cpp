// Signed CRDT checkpoints + O(delta) catch-up (ROADMAP item 3).
//
// Three layers of proof:
//  1. Checkpoint codec/crypto: canonical encode/decode roundtrip, digest
//     stability, and rejection of every tampered field before any state
//     would be merged.
//  2. The semilattice property the whole subsystem rests on: installing a
//     snapshot at a frontier and replaying only the delta yields byte-
//     identical object state to replaying the full history.
//  3. End-to-end O(delta) catch-up: the chaos presets (long partition,
//     crash + restart under load) heal with bounded sync traffic and
//     bounded recovery replay, asserted against checkpoint-free runs of
//     the same scenarios.
#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "contracts/auction.h"
#include "contracts/voting.h"
#include "core/checkpoint.h"
#include "harness/orderless_net.h"
#include "ledger/ledger.h"

namespace orderless {
namespace {

using core::Checkpoint;

crypto::Digest D(const std::string& s) { return crypto::Sha256::Hash(s); }

crdt::Operation VoteOp(const std::string& object, const std::string& voter,
                       bool value, std::uint64_t client,
                       std::uint64_t counter) {
  crdt::Operation op;
  op.object_id = object;
  op.object_type = crdt::CrdtType::kMap;
  op.path = {voter};
  op.kind = crdt::OpKind::kAssignValue;
  op.value_type = crdt::CrdtType::kMVRegister;
  op.value = crdt::Value(value);
  op.clock = clk::OpClock{client, counter};
  return op;
}

/// A sealed checkpoint over a couple of objects and covered transactions.
Checkpoint MakeSealed(const crypto::PrivateKey& key) {
  ledger::Ledger source(std::make_shared<ledger::MemKvStore>());
  source.Commit(D("a"), true, {VoteOp("obj1", "v1", true, 1, 1)});
  source.Commit(D("b"), true, {VoteOp("obj2", "v2", false, 2, 1)});
  source.Commit(D("c"), false, {});

  Checkpoint ckpt;
  ckpt.seq = 3;
  ckpt.origin = key.id();
  ckpt.chain_height = source.log().total_appended();
  ckpt.chain_head = source.log().LastHash();
  ckpt.valid_count = 2;
  ckpt.valid_xor = D("a").Prefix64() ^ D("b").Prefix64();
  ckpt.covered = {{D("a"), true}, {D("b"), true}, {D("c"), false}};
  std::sort(ckpt.covered.begin(), ckpt.covered.end(),
            [](const Checkpoint::CoveredTx& x, const Checkpoint::CoveredTx& y) {
              return x.id.bytes < y.id.bytes;
            });
  ckpt.objects = source.cache().SnapshotStates();
  ckpt.Seal(key);
  return ckpt;
}

TEST(CheckpointCodec, EncodeDecodeRoundtrip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const Checkpoint ckpt = MakeSealed(key);

  codec::Writer w;
  ckpt.Encode(w);
  codec::Reader r{BytesView(w.data())};
  const auto decoded = Checkpoint::Decode(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->seq, ckpt.seq);
  EXPECT_EQ(decoded->origin, ckpt.origin);
  EXPECT_EQ(decoded->chain_height, ckpt.chain_height);
  EXPECT_EQ(decoded->chain_head, ckpt.chain_head);
  EXPECT_EQ(decoded->valid_count, ckpt.valid_count);
  EXPECT_EQ(decoded->valid_xor, ckpt.valid_xor);
  ASSERT_EQ(decoded->covered.size(), ckpt.covered.size());
  for (std::size_t i = 0; i < ckpt.covered.size(); ++i) {
    EXPECT_EQ(decoded->covered[i].id, ckpt.covered[i].id);
    EXPECT_EQ(decoded->covered[i].valid, ckpt.covered[i].valid);
  }
  EXPECT_EQ(decoded->objects, ckpt.objects);
  EXPECT_EQ(decoded->digest, ckpt.digest);
  EXPECT_EQ(decoded->signature, ckpt.signature);
  EXPECT_TRUE(decoded->Verify(pki, {key.id()}));
}

TEST(CheckpointCodec, TruncatedBytesDecodeToNull) {
  crypto::Pki pki;
  const Checkpoint ckpt = MakeSealed(pki.Generate("org-0"));
  codec::Writer w;
  ckpt.Encode(w);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, w.size() / 2,
                          w.size() - 1}) {
    codec::Reader r{BytesView(w.data().data(), cut)};
    EXPECT_EQ(Checkpoint::Decode(r), nullptr) << "cut at " << cut;
  }
}

TEST(CheckpointCodec, VerifyRejectsEveryTamperedField) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const crypto::PrivateKey other = pki.Generate("org-1");
  const std::set<crypto::KeyId> orgs = {key.id(), other.id()};

  const Checkpoint sealed = MakeSealed(key);
  ASSERT_TRUE(sealed.Verify(pki, orgs));

  {
    Checkpoint t = sealed;  // snapshot state flipped
    ASSERT_FALSE(t.objects.empty());
    t.objects[0].second[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // covered verdict flipped
    t.covered[0].valid = !t.covered[0].valid;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // covered id substituted
    t.covered[0].id = D("smuggled");
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // inflated valid count
    ++t.valid_count;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // rewritten chain frontier
    t.chain_head = D("forged-head");
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // digest itself tampered
    t.digest.bytes[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // signature tampered
    t.signature.bytes[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // origin claims another org without its key
    t.origin = other.id();
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // origin outside the organization set
    EXPECT_FALSE(t.Verify(pki, {other.id()}));
  }
  {
    // Re-sealed under a non-origin key: digest matches but the signature
    // binds to the wrong identity.
    Checkpoint t = sealed;
    t.Seal(other);
    t.origin = key.id();
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
}

// The semilattice property behind snapshot transfer: merge(snapshot at
// frontier K, replay of ops K..N) must equal replay of ops 0..N byte for
// byte, for random op histories and random frontiers.
TEST(CheckpointProperty, SnapshotPlusDeltaMatchesFullReplayByteForByte) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int total = 40 + static_cast<int>(rng.NextBelow(40));
    const int frontier = 1 + static_cast<int>(rng.NextBelow(
                                 static_cast<std::uint64_t>(total - 1)));

    std::vector<std::pair<crypto::Digest, crdt::Operation>> history;
    for (int i = 0; i < total; ++i) {
      const std::string object = "o" + std::to_string(rng.NextBelow(4));
      history.emplace_back(
          D("tx" + std::to_string(seed) + "-" + std::to_string(i)),
          VoteOp(object, "v" + std::to_string(rng.NextBelow(9)),
                 rng.NextBool(0.5), 1 + rng.NextBelow(5),
                 static_cast<std::uint64_t>(i + 1)));
    }

    // Full-history replay.
    ledger::Ledger full(std::make_shared<ledger::MemKvStore>());
    for (const auto& [id, op] : history) full.Commit(id, true, {op});

    // Prefix ledger up to the frontier; its cache snapshot is the
    // checkpoint payload.
    ledger::Ledger prefix(std::make_shared<ledger::MemKvStore>());
    for (int i = 0; i < frontier; ++i) {
      prefix.Commit(history[i].first, true, {history[i].second});
    }
    const auto snapshot = prefix.cache().SnapshotStates();

    // Install the snapshot into a fresh ledger, then replay only the delta.
    ledger::Ledger delta(std::make_shared<ledger::MemKvStore>());
    for (const auto& [object_id, state] : snapshot) {
      ASSERT_TRUE(delta.MergeObjectState(object_id, BytesView(state)));
    }
    for (int i = frontier; i < total; ++i) {
      delta.Commit(history[i].first, true, {history[i].second});
    }

    for (int o = 0; o < 4; ++o) {
      const std::string object = "o" + std::to_string(o);
      EXPECT_EQ(delta.cache().EncodeObjectState(object),
                full.cache().EncodeObjectState(object))
          << "seed " << seed << " frontier " << frontier << " object "
          << object;
    }
  }
}

// Installing the same snapshot twice — or installing it over a ledger that
// already replayed part of the covered history — must be idempotent (CRDT
// merge semantics).
TEST(CheckpointProperty, SnapshotInstallIsIdempotentAndMonotone) {
  ledger::Ledger source(std::make_shared<ledger::MemKvStore>());
  for (int i = 0; i < 20; ++i) {
    source.Commit(D("t" + std::to_string(i)), true,
                  {VoteOp("m", "k" + std::to_string(i % 5), i % 2 == 0,
                          1 + i % 3, static_cast<std::uint64_t>(1 + i))});
  }
  const auto snapshot = source.cache().SnapshotStates();

  ledger::Ledger target(std::make_shared<ledger::MemKvStore>());
  // Target already has a prefix of the covered history.
  for (int i = 0; i < 10; ++i) {
    target.Commit(D("t" + std::to_string(i)), true,
                  {VoteOp("m", "k" + std::to_string(i % 5), i % 2 == 0,
                          1 + i % 3, static_cast<std::uint64_t>(1 + i))});
  }
  for (const auto& [object_id, state] : snapshot) {
    ASSERT_TRUE(target.MergeObjectState(object_id, BytesView(state)));
  }
  const Bytes once = target.cache().EncodeObjectState("m");
  EXPECT_EQ(once, source.cache().EncodeObjectState("m"));
  for (const auto& [object_id, state] : snapshot) {
    ASSERT_TRUE(target.MergeObjectState(object_id, BytesView(state)));
  }
  EXPECT_EQ(target.cache().EncodeObjectState("m"), once);
}

// ---------------------------------------------------------------------------
// Quorum attestation: codec, counting rules, and decode robustness.

using core::AttestationSet;
using core::CheckpointAttestation;

AttestationSet MakeAttested(const crypto::Digest& digest,
                            const std::vector<crypto::PrivateKey>& keys) {
  AttestationSet set;
  set.ckpt_digest = digest;
  for (const crypto::PrivateKey& key : keys) {
    set.attestations.push_back(CheckpointAttestation{
        key.id(), key.Sign(core::kCheckpointAttestContext, digest)});
  }
  return set;
}

TEST(CheckpointAttest, SetRoundtripAndQuorumCounting) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const crypto::Digest digest = D("ckpt");
  const AttestationSet set = MakeAttested(digest, keys);

  codec::Writer w;
  set.Encode(w);
  codec::Reader r{BytesView(w.data())};
  AttestationSet decoded;
  ASSERT_TRUE(AttestationSet::Decode(r, decoded));
  EXPECT_EQ(decoded, set);
  EXPECT_EQ(decoded.CountValid(pki, orgs), 4u);
  EXPECT_TRUE(decoded.HasQuorum(pki, orgs, 4));
  EXPECT_FALSE(decoded.HasQuorum(pki, orgs, 5));
}

TEST(CheckpointAttest, QuorumCountsDistinctValidOrgKeysOnly) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const crypto::PrivateKey outsider = pki.Generate("outsider");
  const crypto::Digest digest = D("ckpt");

  {
    // A duplicated attester counts once — one Byzantine org cannot vote
    // itself into a quorum by repeating its own signature.
    AttestationSet set = MakeAttested(digest, {keys[0], keys[0], keys[0]});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
    EXPECT_FALSE(set.HasQuorum(pki, orgs, 2));
  }
  {
    // A key outside the organization set counts zero even with a valid
    // signature (a Sybil identity the PKI knows but the channel does not).
    AttestationSet set = MakeAttested(digest, {keys[0], outsider});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A seal-context signature cannot be replayed as an attestation.
    AttestationSet set = MakeAttested(digest, {keys[0]});
    set.attestations.push_back(CheckpointAttestation{
        keys[1].id(), keys[1].Sign(core::kCheckpointContext, digest)});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A signature over a different digest counts zero.
    AttestationSet set = MakeAttested(digest, {keys[0]});
    set.attestations.push_back(CheckpointAttestation{
        keys[1].id(),
        keys[1].Sign(core::kCheckpointAttestContext, D("other"))});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A tampered signature byte counts zero.
    AttestationSet set = MakeAttested(digest, {keys[0], keys[1]});
    set.attestations[1].signature.bytes[0] ^= 0x01;
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  EXPECT_EQ(AttestationSet{}.CountValid(pki, orgs), 0u);
}

// Satellite battery: every checkpoint-layer wire message must cleanly
// reject *all* byte-prefixes and survive *all* single-byte flips — a flip
// either fails to decode, fails verification, or is semantically inert
// (e.g. a nonzero bool byte); it must never yield an accepted forgery.
TEST(CheckpointAttest, CheckpointRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const std::set<crypto::KeyId> orgs = {key.id()};
  const Checkpoint ckpt = MakeSealed(key);
  codec::Writer w;
  ckpt.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    EXPECT_EQ(Checkpoint::Decode(r), nullptr) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    const auto decoded = Checkpoint::Decode(r);
    if (decoded == nullptr) continue;
    if (!decoded->Verify(pki, orgs)) continue;
    // Decoded *and* verified: the flip must have been semantically inert —
    // the content still hashes to the original sealed digest.
    EXPECT_EQ(decoded->ComputeDigest(), ckpt.digest) << "flip at " << i;
  }
}

TEST(CheckpointAttest, AttestationSetRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const AttestationSet set = MakeAttested(D("ckpt"), keys);
  codec::Writer w;
  set.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    AttestationSet out;
    EXPECT_FALSE(AttestationSet::Decode(r, out)) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    AttestationSet out;
    if (!AttestationSet::Decode(r, out)) continue;
    // Any decodable flip must cost quorum weight, never add it.
    EXPECT_LT(out.CountValid(pki, orgs), 3u) << "flip at " << i;
  }
}

TEST(CheckpointAttest, AttestationRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const crypto::Digest digest = D("ckpt");
  const CheckpointAttestation attestation{
      key.id(), key.Sign(core::kCheckpointAttestContext, digest)};
  ASSERT_TRUE(attestation.Verify(pki, digest));
  codec::Writer w;
  attestation.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    CheckpointAttestation out;
    EXPECT_FALSE(CheckpointAttestation::Decode(r, out)) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    CheckpointAttestation out;
    ASSERT_TRUE(CheckpointAttestation::Decode(r, out)) << "flip at " << i;
    EXPECT_FALSE(out.Verify(pki, digest)) << "flip at " << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end O(delta) catch-up through the chaos presets.

TEST(CheckpointCatchup, LongPartitionHealsInODelta) {
  const chaos::Scenario with = chaos::MakeLongPartitionScenario(1);
  chaos::Scenario without = with;
  without.checkpoints = false;

  const chaos::ChaosRunResult on = chaos::RunScenario(with);
  const chaos::ChaosRunResult off = chaos::RunScenario(without);
  ASSERT_TRUE(on.ok()) << on.Summary();
  ASSERT_TRUE(off.ok()) << off.Summary();
  EXPECT_GT(on.committed, 60u) << "workload mostly committed";

  // The org that spent the run partitioned away (index 4 by construction)
  // must have caught up via snapshot transfer, not by re-pulling history.
  const core::CatchupStats& healed = on.org_catchup[4];
  EXPECT_GE(healed.ckpt_installed, 1u);
  EXPECT_GE(healed.ckpt_txs_covered, on.committed / 2)
      << "the bulk of the missed history arrived as checkpoint coverage";
  EXPECT_EQ(healed.ckpt_rejected, 0u);

  // O(delta): with checkpoints the healed org receives strictly fewer
  // transaction bodies over gossip/sync than the checkpoint-free run, where
  // anti-entropy must ship the full missed history.
  const core::CatchupStats& healed_off = off.org_catchup[4];
  EXPECT_LT(healed.sync_txs_received, healed_off.sync_txs_received)
      << "checkpoints on: " << healed.sync_txs_received
      << " bodies, off: " << healed_off.sync_txs_received;
  EXPECT_LT(healed.sync_txs_received + healed.ckpt_txs_covered,
            healed_off.sync_txs_received + on.committed)
      << "coverage adoption replaces body transfer instead of adding to it";

  // Storage was actually reclaimed behind the sealed frontiers.
  EXPECT_GT(on.pruned_records_total, 0u);
  EXPECT_EQ(off.pruned_records_total, 0u);
}

TEST(CheckpointCatchup, CrashRestartUnderLoadRecoversInODelta) {
  const chaos::Scenario scenario = chaos::MakeCrashRestartScenario(1);
  const chaos::ChaosRunResult result = chaos::RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.Summary();
  EXPECT_GT(result.committed, 60u);

  // Org 3 crashed at 1.2s and restarted at 9s under load. Its recovery must
  // have been checkpoint-seeded: only the post-frontier records were
  // replayed from its store, the rest arrived as checkpoint coverage.
  const core::CatchupStats& restarted = result.org_catchup[3];
  EXPECT_LT(restarted.recovered_records, result.committed / 2)
      << "recovery replayed O(delta) records, not the full history";
  EXPECT_GE(restarted.ckpt_installed, 1u);
  EXPECT_GE(restarted.ckpt_txs_covered, result.committed / 2);
  EXPECT_EQ(restarted.ckpt_rejected, 0u);
}

TEST(CheckpointCatchup, PresetsReplayBitIdentically) {
  for (const chaos::Scenario& scenario :
       {chaos::MakeLongPartitionScenario(2),
        chaos::MakeCrashRestartScenario(2)}) {
    const chaos::ChaosRunResult a = chaos::RunScenario(scenario);
    const chaos::ChaosRunResult b = chaos::RunScenario(scenario);
    ASSERT_TRUE(a.ok()) << a.Summary();
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.org_chain_heads, b.org_chain_heads);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }
}

// ---------------------------------------------------------------------------
// Quorum-attested catch-up under active checkpoint-layer adversaries: the
// byzantine-catchup preset runs f = n − q organizations forging,
// equivocating, dishonestly attesting, withholding, replaying stale
// snapshots and corrupting deltas — and the lagging honest org must still
// heal in O(delta) through a q-of-n attested install.

TEST(CheckpointCatchup, ByzantineCatchupHealsInODeltaUnderAttack) {
  const chaos::Scenario with = chaos::MakeByzantineCatchupScenario(1);
  chaos::Scenario without = with;
  without.checkpoints = false;

  const chaos::ChaosRunResult on = chaos::RunScenario(with);
  const chaos::ChaosRunResult off = chaos::RunScenario(without);
  // ok() covers convergence, safety, and the checkpoint-attestation
  // invariant: every installed checkpoint at an honest org carries a valid
  // q-of-n attestation set and its state is dominated by local state.
  ASSERT_TRUE(on.ok()) << on.Summary();
  ASSERT_TRUE(off.ok()) << off.Summary();
  EXPECT_EQ(on.committed, with.tx_count);

  // The partitioned honest org (index 5 by construction) healed through an
  // attested snapshot, not by re-pulling history.
  const core::CatchupStats& healed = on.org_catchup[5];
  EXPECT_GE(healed.ckpt_installed, 1u);
  EXPECT_GT(healed.ckpt_txs_covered, 0u);
  EXPECT_LT(healed.sync_txs_received, off.org_catchup[5].sync_txs_received)
      << "attested on: " << healed.sync_txs_received
      << " bodies, baseline: " << off.org_catchup[5].sync_txs_received;

  // The adversaries engaged and were contained: honest orgs refused
  // unreproducible announcements and rejected unattested/forged snapshots,
  // and the network still promoted honest checkpoints to quorum.
  std::uint64_t honest_pushback = 0;
  for (const std::size_t org : {0, 1, 4, 5}) {
    honest_pushback += on.org_catchup[org].ckpt_refused +
                       on.org_catchup[org].ckpt_rejected;
  }
  EXPECT_GT(honest_pushback, 0u);
  EXPECT_GT(on.ckpt_attested_total, 0u);
  // The dishonest attester (org 2) never got its forged seals promoted.
  EXPECT_EQ(on.org_catchup[2].ckpt_attested, 0u);
}

TEST(CheckpointCatchup, ByzantineCatchupReplaysBitIdentically) {
  const chaos::Scenario scenario = chaos::MakeByzantineCatchupScenario(1);
  const chaos::ChaosRunResult a = chaos::RunScenario(scenario);
  const chaos::ChaosRunResult b = chaos::RunScenario(scenario);
  ASSERT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.org_chain_heads, b.org_chain_heads);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// ---------------------------------------------------------------------------
// Direct harness test: seal → prune → crash → checkpoint-seeded restart.

harness::OrderlessNetConfig CheckpointNetConfig() {
  harness::OrderlessNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 3;
  config.policy = core::EndorsementPolicy{2, 4};
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.org_timing.gossip_interval = sim::Ms(200);
  config.org_timing.gossip_fanout = 3;
  config.org_timing.gossip_rounds = 4;
  config.org_timing.antientropy_interval = sim::Ms(500);
  config.org_timing.checkpoint.interval = sim::Ms(800);
  config.client_timing.max_attempts = 4;
  config.client_timing.endorse_timeout = sim::Ms(700);
  config.client_timing.commit_timeout = sim::Ms(700);
  config.seed = 211;
  return config;
}

void SubmitVotes(harness::OrderlessNet& net, int txs, int offset,
                 int& committed) {
  for (int i = 0; i < txs; ++i) {
    const int v = offset + i;
    net.client(v % net.client_count())
        .SubmitModify("voting", "Vote",
                      {crdt::Value("e"),
                       crdt::Value(static_cast<std::int64_t>(v % 4)),
                       crdt::Value(std::int64_t{4})},
                      [&committed](const core::TxOutcome& o) {
                        if (o.committed) ++committed;
                      });
    net.simulation().RunUntil(net.simulation().now() + sim::Ms(150));
  }
}

TEST(CheckpointCatchup, PrunedLedgerRestartIsCheckpointSeeded) {
  harness::OrderlessNet net(CheckpointNetConfig());
  net.RegisterContract(std::make_shared<contracts::VotingContract>());
  net.Start();

  int committed = 0;
  SubmitVotes(net, 16, 0, committed);
  net.simulation().RunUntil(net.simulation().now() + sim::Sec(10));
  ASSERT_EQ(committed, 16);

  // Every org sealed at least once and reclaimed storage behind the
  // frontier; the sealed checkpoint verifies against the network's PKI.
  std::set<crypto::KeyId> org_keys;
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    org_keys.insert(net.org(i).key());
  }
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    const auto& sealed = net.org(i).sealed_checkpoint();
    ASSERT_NE(sealed, nullptr) << "org " << i;
    EXPECT_TRUE(sealed->Verify(net.pki(), org_keys)) << "org " << i;
    EXPECT_GT(net.org(i).catchup_stats().pruned_records, 0u) << "org " << i;
  }

  const std::string object = contracts::VotingContract::PartyObject("e", 1);
  const Bytes state_before =
      net.org(2).ledger().cache().EncodeObjectState(object);
  const std::uint64_t effective_before =
      net.org(2).effective_committed_valid();
  const std::uint64_t sealed_seq_before = net.org(2).sealed_checkpoint()->seq;

  net.CrashOrg(2);
  ASSERT_TRUE(net.RestartOrg(2));

  // Checkpoint-seeded recovery: the pruned prefix was never replayed — only
  // the records committed after the last seal.
  const core::CatchupStats& stats = net.org(2).catchup_stats();
  EXPECT_LT(stats.recovered_records, 16u)
      << "full-history replay would have touched all records";
  EXPECT_GE(stats.ckpt_txs_covered,
            16u - stats.recovered_records)
      << "everything not replayed came back as checkpoint coverage";
  ASSERT_NE(net.org(2).sealed_checkpoint(), nullptr);
  EXPECT_EQ(net.org(2).sealed_checkpoint()->seq, sealed_seq_before);

  // State and effective commit counters survive byte for byte, and the
  // base-seeded chain still verifies.
  EXPECT_EQ(net.org(2).ledger().cache().EncodeObjectState(object),
            state_before);
  EXPECT_EQ(net.org(2).effective_committed_valid(), effective_before);
  EXPECT_TRUE(net.org(2).ledger().log().Verify());

  // The restarted org keeps participating: more commits, still converged.
  SubmitVotes(net, 6, 16, committed);
  net.simulation().RunUntil(net.simulation().now() + sim::Sec(12));
  EXPECT_EQ(committed, 22);
  const std::uint64_t reference = net.org(0).effective_committed_valid();
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    EXPECT_EQ(net.org(i).effective_committed_valid(), reference)
        << "org " << i;
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(net.StateConverged(
        contracts::VotingContract::PartyObject("e", p)))
        << "party " << p;
  }
}

}  // namespace
}  // namespace orderless
