// The hot-path caches (encode-once/hash-once transactions, the network-wide
// verdict table) are host-side only: every cached value must equal an
// independent recomputation, and a simulated run must be bit-identical no
// matter which lane filled the shared table — same fingerprint, same event
// count, same ledger chain head at every organization. These tests pin that
// contract, plus the verdict table's Byzantine body-substitution guard.
#include <gtest/gtest.h>

#include <thread>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "core/transaction.h"
#include "core/validation_cache.h"
#include "crypto/pki.h"
#include "crypto/sha256.h"

namespace orderless {
namespace {

chaos::Scenario DeterminismScenario(std::uint64_t seed) {
  chaos::ScenarioLimits limits;
  limits.min_orgs = 4;
  limits.max_orgs = 6;
  limits.num_clients = 4;
  limits.tx_count = 24;
  limits.duration = sim::Sec(6);
  limits.quiesce = sim::Sec(15);
  return chaos::GenerateScenario(seed, limits);
}

// The verdict table is the one host cache whose fill order depends on host
// scheduling: at 4 threads whichever org lane validates a transaction first
// stores its verdict, at 1 thread the canonical event order decides. Either
// way the replay must be bit-identical.
TEST(PerfDeterminism, ChaosReplayIdenticalWithAndWithoutMemo) {
  // Two seeds so both a quiet and a fault-heavy script are covered.
  for (const std::uint64_t seed : {7u, 1234u}) {
    const chaos::Scenario scenario = DeterminismScenario(seed);
    const chaos::ChaosRunResult sequential =
        chaos::RunScenario(scenario, chaos::RunOptions{.threads = 1});
    const chaos::ChaosRunResult racing =
        chaos::RunScenario(scenario, chaos::RunOptions{.threads = 4});

    EXPECT_EQ(sequential.fingerprint, racing.fingerprint) << "seed " << seed;
    EXPECT_EQ(sequential.events_processed, racing.events_processed)
        << "seed " << seed;
    EXPECT_EQ(sequential.messages_sent, racing.messages_sent)
        << "seed " << seed;
    EXPECT_EQ(sequential.bytes_sent, racing.bytes_sent) << "seed " << seed;
    EXPECT_EQ(sequential.committed, racing.committed) << "seed " << seed;
    // Per-org chain heads pinpoint divergence if the fingerprint ever splits.
    ASSERT_EQ(sequential.org_chain_heads.size(),
              racing.org_chain_heads.size());
    for (std::size_t i = 0; i < sequential.org_chain_heads.size(); ++i) {
      EXPECT_EQ(sequential.org_chain_heads[i], racing.org_chain_heads[i])
          << "seed " << seed << " org " << i;
    }
  }
}

core::Proposal MakeProposal() {
  core::Proposal p;
  p.client = 42;
  p.contract = "voting";
  p.function = "Vote";
  p.args = {crdt::Value("e"), crdt::Value(std::int64_t{1})};
  p.clock.client = 42;
  p.clock.counter = 7;
  return p;
}

std::vector<crdt::Operation> MakeOps() {
  std::vector<crdt::Operation> ops;
  crdt::Operation op;
  op.object_id = "obj";
  op.value = crdt::Value(std::int64_t{5});
  ops.push_back(op);
  return ops;
}

/// Canonical encoding written field by field, independently of the cached
/// Transaction::EncodedBody() path.
Bytes EncodeFieldByField(const core::Transaction& tx) {
  codec::Writer w;
  tx.proposal.Encode(w);
  crdt::EncodeOperations(tx.ops, w);
  w.PutVarint(tx.endorsements.size());
  for (const core::Endorsement& e : tx.endorsements) {
    w.PutU64(e.org);
    w.PutBytes(e.signature.View());
  }
  w.PutBytes(tx.client_signature.View());
  w.PutBytes(tx.id.View());
  return w.Take();
}

TEST(PerfDeterminism, CachedDigestsMatchUncachedComputation) {
  const core::Proposal p = MakeProposal();
  crypto::Digest cached = p.Digest();
  cached = p.Digest();  // second call served from the cache
  const std::size_t size_cached = p.WireSize();

  codec::Writer w;
  MakeProposal().Encode(w);
  EXPECT_EQ(cached, crypto::Sha256::Hash(BytesView(w.data())));
  EXPECT_EQ(size_cached, w.size());
}

TEST(PerfDeterminism, InvalidateCacheDropsStaleDigest) {
  core::Proposal p = MakeProposal();
  const crypto::Digest before = p.Digest();
  p.clock.counter += 1;  // the Byzantine inconsistent-clocks mutation
  p.InvalidateCache();
  const crypto::Digest after = p.Digest();
  EXPECT_NE(before, after);

  core::Proposal reference = MakeProposal();
  reference.clock.counter += 1;
  EXPECT_EQ(after, reference.Digest());
}

// "Without memo" is computed independently of the caches: a field-by-field
// encode and a cache-free decoded copy.
TEST(PerfDeterminism, TransactionEncodingIdenticalWithAndWithoutMemo) {
  crypto::Pki pki;
  const crypto::PrivateKey client = pki.Generate("client");
  const crypto::PrivateKey org = pki.Generate("org");
  const core::Proposal p = MakeProposal();
  const auto ops = MakeOps();
  core::Endorsement e;
  e.org = org.id();
  e.signature = org.Sign(core::kEndorseContext,
                         core::EndorsementMessage(p.Digest(),
                                                  core::WriteSetDigest(ops)));
  const auto tx = core::Transaction::Assemble(p, ops, {e}, client);

  codec::Writer w;
  tx->Encode(w);
  tx->Encode(w);  // second append comes from the cached canonical bytes
  Bytes expected = EncodeFieldByField(*tx);
  const std::size_t one = expected.size();
  expected.insert(expected.end(), expected.begin(), expected.begin() + one);
  EXPECT_EQ(w.data(), expected);

  // The cached digests and wire size equal a cache-free decoded copy's.
  codec::Reader r(BytesView(w.data()));
  const auto copy = core::Transaction::Decode(r);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(tx->ProposalDigest(), copy->ProposalDigest());
  EXPECT_EQ(tx->OpsDigest(), copy->OpsDigest());
  EXPECT_EQ(tx->OpsDigest(), core::WriteSetDigest(ops));
  EXPECT_EQ(tx->WireSize(), copy->WireSize());
}

class VerdictTableFixture : public ::testing::Test {
 protected:
  VerdictTableFixture()
      : client_(pki_.Generate("client")),
        org0_(pki_.Generate("org0")),
        org1_(pki_.Generate("org1")),
        outsider_(pki_.Generate("outsider")),
        org_keys_({org0_.id(), org1_.id()}),
        policy_{2, 2} {
    crypto::batch::ResetCounts();
    crypto::batch::SetCountDispatch(true);
  }
  ~VerdictTableFixture() override { crypto::batch::SetCountDispatch(false); }

  core::VerdictTable MakeTable() {
    return core::VerdictTable(pki_, org_keys_, policy_);
  }

  /// Honest transaction endorsed by `endorsers` (default: both orgs).
  std::shared_ptr<core::Transaction> MakeTx(
      std::uint64_t counter,
      std::vector<const crypto::PrivateKey*> endorsers = {}) {
    if (endorsers.empty()) endorsers = {&org0_, &org1_};
    core::Proposal p = MakeProposal();
    p.client = client_.id();
    p.clock.counter = counter;
    const auto ops = MakeOps();
    const crypto::Digest msg =
        core::EndorsementMessage(p.Digest(), core::WriteSetDigest(ops));
    std::vector<core::Endorsement> endorsements;
    for (const crypto::PrivateKey* key : endorsers) {
      endorsements.push_back(
          core::Endorsement{key->id(), key->Sign(core::kEndorseContext, msg)});
    }
    return core::Transaction::Assemble(p, ops, std::move(endorsements),
                                       client_);
  }

  /// A copy of `tx` mutated by `mutate`, re-sealed as a Byzantine sender
  /// would ship it (the id is left as claimed).
  template <typename Mutate>
  std::shared_ptr<const core::Transaction> Forge(const core::Transaction& tx,
                                                 Mutate mutate) {
    auto forged = std::make_shared<core::Transaction>(tx);
    mutate(*forged);
    forged->InvalidateCache();
    forged->Seal();
    return forged;
  }

  static std::uint64_t VerifyCalls() {
    return crypto::batch::Counts().verify_batches;
  }

  core::TxVerdict Reference(const core::Transaction& tx) const {
    return core::ValidateTransaction(tx, pki_, org_keys_, policy_);
  }

  crypto::Pki pki_;
  crypto::PrivateKey client_;
  crypto::PrivateKey org0_;
  crypto::PrivateKey org1_;
  crypto::PrivateKey outsider_;  // registered, but not an organization key
  std::set<crypto::KeyId> org_keys_;
  core::EndorsementPolicy policy_;
};

TEST_F(VerdictTableFixture, SameObjectAndDecodedCopyHitWithoutVerifying) {
  core::VerdictTable table = MakeTable();
  const std::shared_ptr<const core::Transaction> tx = MakeTx(7);
  EXPECT_EQ(table.Validate(tx), core::TxVerdict::kValid);
  ASSERT_EQ(VerifyCalls(), 1u);  // the miss verified all signatures at once

  // Same object: the zero-copy delivery case.
  EXPECT_EQ(table.Validate(tx), core::TxVerdict::kValid);
  EXPECT_EQ(VerifyCalls(), 1u);

  // A decoded copy (anti-entropy / recovery path): different object and
  // buffer, byte-identical canonical form — still a hit.
  codec::Writer w;
  tx->Encode(w);
  codec::Reader r(BytesView(w.data()));
  std::shared_ptr<const core::Transaction> copy = core::Transaction::Decode(r);
  ASSERT_NE(copy, nullptr);
  copy->Seal();
  ASSERT_NE(copy->SharedEncoding(), tx->SharedEncoding());
  EXPECT_EQ(table.Validate(copy), core::TxVerdict::kValid);
  EXPECT_EQ(VerifyCalls(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(VerdictTableFixture, ForgedBodyUnderKnownIdIsValidatedInFull) {
  core::VerdictTable table = MakeTable();
  const std::shared_ptr<const core::Transaction> tx = MakeTx(7);
  ASSERT_EQ(table.Validate(tx), core::TxVerdict::kValid);
  const std::uint64_t after_honest = VerifyCalls();

  // A Byzantine peer ships a different body under the verified id: the table
  // must not vouch for it, so the forgery pays a full validation (one more
  // signature pass) and gets its own verdict.
  const auto forged = Forge(*tx, [](core::Transaction& t) {
    t.client_signature.bytes[0] ^= 0x01;
  });
  ASSERT_EQ(forged->id, tx->id);  // id claims to be the verified tx
  EXPECT_EQ(table.Validate(forged), core::TxVerdict::kBadClientSignature);
  EXPECT_EQ(VerifyCalls(), after_honest + 1);

  // A forged write-set fails earlier (the id no longer binds it) — still
  // never the stored kValid.
  const auto tampered = Forge(*tx, [](core::Transaction& t) {
    t.ops[0].value = crdt::Value(std::int64_t{999});
  });
  EXPECT_EQ(table.Validate(tampered), core::TxVerdict::kIdMismatch);

  // The forgeries never replaced the stored entry: the honest body still
  // hits without verifying anything.
  EXPECT_EQ(table.Validate(tx), core::TxVerdict::kValid);
  EXPECT_EQ(VerifyCalls(), after_honest + 1);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(VerdictTableFixture, EveryVerdictKindMatchesValidateTransaction) {
  const auto honest = MakeTx(7);
  struct Case {
    core::TxVerdict expected;
    std::shared_ptr<const core::Transaction> tx;
  };
  const Case cases[] = {
      {core::TxVerdict::kValid, honest},
      {core::TxVerdict::kBadClientSignature,
       Forge(*honest,
             [](core::Transaction& t) { t.client_signature.bytes[3] ^= 1; })},
      {core::TxVerdict::kInsufficientEndorsements, MakeTx(8, {&org0_})},
      {core::TxVerdict::kUnknownEndorser, MakeTx(9, {&org0_, &outsider_})},
      {core::TxVerdict::kDuplicateEndorser, MakeTx(10, {&org0_, &org0_})},
      {core::TxVerdict::kBadEndorsementSignature,
       Forge(*honest,
             [&](core::Transaction& t) {
               // A real org1 signature, but over the wrong message.
               t.endorsements[1].signature =
                   org1_.Sign(core::kEndorseContext, honest->id);
             })},
      {core::TxVerdict::kIdMismatch,
       Forge(*honest,
             [](core::Transaction& t) { t.ops[0].object_id = "other"; })},
  };
  for (const Case& c : cases) {
    const std::string kind(core::TxVerdictName(c.expected));
    ASSERT_EQ(Reference(*c.tx), c.expected) << kind;
    core::VerdictTable table = MakeTable();
    EXPECT_EQ(table.Validate(c.tx), c.expected) << kind << " (first call)";
    ASSERT_EQ(table.size(), 1u) << kind;
    EXPECT_EQ(table.Validate(c.tx), c.expected) << kind << " (cached call)";
  }
}

TEST_F(VerdictTableFixture, InsertPastCapacityEvictsFirstEntry) {
  core::VerdictTable table = MakeTable();
  std::vector<std::shared_ptr<const core::Transaction>> txs;
  txs.reserve(core::VerdictTable::kCapacity + 1);
  for (std::uint64_t i = 0; i <= core::VerdictTable::kCapacity; ++i) {
    txs.push_back(MakeTx(1000 + i));
    ASSERT_EQ(table.Validate(txs.back()), core::TxVerdict::kValid);
  }
  EXPECT_EQ(table.size(), core::VerdictTable::kCapacity);

  // The 8193rd insert evicted the first entry only: the second still hits,
  // the first has to be verified again.
  const std::uint64_t before = VerifyCalls();
  EXPECT_EQ(table.Validate(txs[1]), core::TxVerdict::kValid);
  EXPECT_EQ(VerifyCalls(), before);
  EXPECT_EQ(table.Validate(txs[0]), core::TxVerdict::kValid);
  EXPECT_EQ(VerifyCalls(), before + 1);
  EXPECT_EQ(table.size(), core::VerdictTable::kCapacity);
}

// Every org lane calls the table directly; under the parallel engine several
// lanes validate the same objects at once. Runs under the TSan job.
TEST_F(VerdictTableFixture, ConcurrentLanesAgreeWithValidateTransaction) {
  crypto::batch::SetCountDispatch(false);
  std::vector<std::shared_ptr<const core::Transaction>> txs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto tx = MakeTx(i);
    txs.push_back(tx);
    if (i % 4 == 0) {  // forged bodies under honest ids
      txs.push_back(Forge(*tx, [](core::Transaction& t) {
        t.endorsements[0].signature.bytes[0] ^= 1;
      }));
    }
    if (i % 8 == 0) txs.push_back(MakeTx(500 + i, {&org0_, &org0_}));
  }
  std::vector<core::TxVerdict> expected;
  for (const auto& tx : txs) expected.push_back(Reference(*tx));

  core::VerdictTable table = MakeTable();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPasses = 2;
  // seen[thread][pass][tx]
  std::vector<std::vector<std::vector<core::TxVerdict>>> seen(
      kThreads, std::vector<std::vector<core::TxVerdict>>(
                    kPasses, std::vector<core::TxVerdict>(txs.size())));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the set from a different offset, twice, so misses
      // and hits interleave across threads.
      const std::size_t offset = t * txs.size() / kThreads;
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t k = 0; k < txs.size(); ++k) {
          const std::size_t i = (k + offset) % txs.size();
          seen[t][pass][i] = table.Validate(txs[i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      EXPECT_EQ(seen[t][pass], expected) << "thread " << t << " pass " << pass;
    }
  }
}

}  // namespace
}  // namespace orderless
