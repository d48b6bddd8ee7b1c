#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "common/rng.h"
#include "contracts/auction.h"
#include "contracts/filestore.h"
#include "contracts/supplychain.h"
#include "contracts/synthetic.h"
#include "contracts/voting.h"
#include "core/contract.h"
#include "core/transaction.h"
#include "ledger/cache.h"

namespace orderless::core {
namespace {

TEST(Policy, SafetyAndLivenessBounds) {
  // Paper §3's EP1 {2 of 4}: safe for f<=1, live for f<=2.
  const EndorsementPolicy ep1{2, 4};
  EXPECT_TRUE(ep1.SafeAgainst(1));
  EXPECT_FALSE(ep1.SafeAgainst(2));
  EXPECT_TRUE(ep1.LiveWith(2));
  EXPECT_FALSE(ep1.LiveWith(3));

  // EP2 {4 of 4}: safe for f<=3, live only with f=0.
  const EndorsementPolicy ep2{4, 4};
  EXPECT_TRUE(ep2.SafeAgainst(3));
  EXPECT_TRUE(ep2.LiveWith(0));
  EXPECT_FALSE(ep2.LiveWith(1));

  EXPECT_EQ(ep1.MaxToleratedFaults(), 1u);
  const EndorsementPolicy ep3{4, 16};
  EXPECT_EQ(ep3.MaxToleratedFaults(), 3u);
  EXPECT_EQ(ep1.ToString(), "{2 of 4}");
}

TEST(Policy, BoundSweep) {
  // Theorem 8.1 swept over (n, q, f).
  for (std::uint32_t n = 1; n <= 12; ++n) {
    for (std::uint32_t q = 1; q <= n; ++q) {
      const EndorsementPolicy ep{q, n};
      for (std::uint32_t f = 0; f <= n; ++f) {
        EXPECT_EQ(ep.SafeAgainst(f), q >= f + 1);
        EXPECT_EQ(ep.LiveWith(f), n - q >= f);
      }
    }
  }
}

// ---------------------------------------------------------------------------

class TxFixture : public testing::Test {
 protected:
  TxFixture() {
    for (int i = 0; i < 4; ++i) {
      org_keys_.push_back(pki_.Generate("org" + std::to_string(i)));
      org_key_ids_.insert(org_keys_.back().id());
    }
    client_key_ = pki_.Generate("client");
  }

  Proposal MakeProposal() {
    Proposal p;
    p.client = client_key_.id();
    p.contract = "voting";
    p.function = "Vote";
    p.args = {crdt::Value("e1"), crdt::Value(std::int64_t{0}),
              crdt::Value(std::int64_t{2})};
    p.clock = clk::OpClock{client_key_.id(), 1};
    return p;
  }

  std::vector<crdt::Operation> MakeOps(const Proposal& p) {
    OpEmitter emit(p.clock);
    emit.Assign("vote/e1/party0", crdt::CrdtType::kMap, {"voter"},
                crdt::Value(true));
    emit.Assign("vote/e1/party1", crdt::CrdtType::kMap, {"voter"},
                crdt::Value(false));
    return emit.Take();
  }

  Endorsement Endorse(const crypto::PrivateKey& org, const Proposal& p,
                      const std::vector<crdt::Operation>& ops) {
    Endorsement e;
    e.org = org.id();
    e.signature = org.Sign(
        kEndorseContext, EndorsementMessage(p.Digest(), WriteSetDigest(ops)));
    return e;
  }

  crypto::Pki pki_;
  std::vector<crypto::PrivateKey> org_keys_;
  std::set<crypto::KeyId> org_key_ids_;
  crypto::PrivateKey client_key_;
  EndorsementPolicy policy_{2, 4};
};

TEST_F(TxFixture, ValidTransactionValidates) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kValid);
}

TEST_F(TxFixture, InsufficientEndorsementsRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(p, ops, {Endorse(org_keys_[0], p, ops)},
                                  client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kInsufficientEndorsements);
}

TEST_F(TxFixture, DuplicateEndorserRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[0], p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kDuplicateEndorser);
}

TEST_F(TxFixture, UnknownEndorserRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  const crypto::PrivateKey intruder = pki_.Generate("intruder");
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(intruder, p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kUnknownEndorser);
}

TEST_F(TxFixture, TamperedWriteSetRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  // The client tampers with the endorsed write-set after signing; the id is
  // recomputed correctly, but the endorsement signatures no longer match.
  // (In-place mutation models the attacker re-serializing a modified body,
  // so the cached derivations must be dropped too.)
  tx->ops[0].value = crdt::Value(false);
  tx->InvalidateCache();
  tx->id = Transaction::ComputeId(tx->proposal.Digest(),
                                  WriteSetDigest(tx->ops));
  tx->client_signature = client_key_.Sign(kTxContext, tx->id);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadEndorsementSignature);
}

TEST_F(TxFixture, TamperedWithoutRecomputingIdRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  tx->ops[0].value = crdt::Value(false);  // in-flight corruption
  tx->InvalidateCache();
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kIdMismatch);
}

TEST_F(TxFixture, ForgedClientSignatureRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  const crypto::PrivateKey mallory = pki_.Generate("mallory");
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      mallory);  // mallory signs for the client
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadClientSignature);
}

TEST_F(TxFixture, EndorsementOverDifferentWriteSetRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto other_ops = ops;
  other_ops[0].value = crdt::Value(false);
  auto tx = Transaction::Assemble(
      p, ops,
      {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, other_ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadEndorsementSignature);
}

TEST_F(TxFixture, ReceiptVerification) {
  const crypto::Digest tx_id = crypto::Sha256::Hash(std::string_view("tx"));
  const crypto::Digest block = crypto::Sha256::Hash(std::string_view("block"));
  Receipt receipt = Receipt::Make(tx_id, true, block, org_keys_[0]);
  EXPECT_TRUE(receipt.Verify(pki_));
  Receipt forged = receipt;
  forged.valid = false;  // flip verdict
  EXPECT_FALSE(forged.Verify(pki_));
  Receipt wrong_block = receipt;
  wrong_block.block_hash = crypto::Sha256::Hash(std::string_view("other"));
  EXPECT_FALSE(wrong_block.Verify(pki_));
}

// ---------------------------------------------------------------------------
// Differential tests for the single (batched) verification path. Each
// reference model is the plain per-signature loop that ran for small
// batches before every size went through one VerifyBatch call.

class VerifyReference : public TxFixture {
 protected:
  VerifyReference() : intruder_(pki_.Generate("intruder")) {}

  /// The scalar loop: client signature first, then each endorsement in
  /// order, stopping at the first unknown, duplicate or badly signed one.
  static TxVerdict ScalarVerdict(const Transaction& tx, const crypto::Pki& pki,
                                 const std::set<crypto::KeyId>& org_keys,
                                 const EndorsementPolicy& policy) {
    const crypto::Digest proposal_digest = tx.ProposalDigest();
    const crypto::Digest ws_digest = tx.OpsDigest();
    if (Transaction::ComputeId(proposal_digest, ws_digest) != tx.id) {
      return TxVerdict::kIdMismatch;
    }
    const crypto::Digest message =
        EndorsementMessage(proposal_digest, ws_digest);
    if (!pki.Verify(tx.proposal.client, kTxContext, tx.id,
                    tx.client_signature)) {
      return TxVerdict::kBadClientSignature;
    }
    std::unordered_set<crypto::KeyId> seen;
    std::uint32_t valid_endorsements = 0;
    for (const auto& endorsement : tx.endorsements) {
      if (!org_keys.contains(endorsement.org)) {
        return TxVerdict::kUnknownEndorser;
      }
      if (!seen.insert(endorsement.org).second) {
        return TxVerdict::kDuplicateEndorser;
      }
      if (!pki.Verify(endorsement.org, kEndorseContext, message,
                      endorsement.signature)) {
        return TxVerdict::kBadEndorsementSignature;
      }
      ++valid_endorsements;
    }
    if (valid_endorsements < policy.q) {
      return TxVerdict::kInsufficientEndorsements;
    }
    return TxVerdict::kValid;
  }

  /// Each allowed signer's first entry decides; later entries for the same
  /// signer are never looked at.
  static std::size_t FirstEntryCount(
      const crypto::Pki& pki, std::string_view context,
      const crypto::Digest& digest,
      const std::vector<std::pair<crypto::KeyId, crypto::Signature>>& sigs,
      const std::set<crypto::KeyId>& allowed) {
    std::set<crypto::KeyId> decided;
    std::size_t count = 0;
    for (const auto& [signer, signature] : sigs) {
      if (!allowed.contains(signer)) continue;
      if (!decided.insert(signer).second) continue;
      if (pki.Verify(signer, context, digest, signature)) ++count;
    }
    return count;
  }

  static crypto::Signature RandomSignature(Rng& rng) {
    crypto::Signature sig;
    for (auto& b : sig.bytes) b = static_cast<std::uint8_t>(rng.Next());
    return sig;
  }

  crypto::PrivateKey intruder_;  // registered, but not an organization key
  static constexpr crypto::KeyId kUnregistered = 999999;
};

TEST_F(VerifyReference, ValidateTransactionMatchesScalarLoop) {
  Rng rng(2024);
  std::map<TxVerdict, int> seen_verdicts;
  for (int round = 0; round < 3000; ++round) {
    Proposal p = MakeProposal();
    p.clock.counter = 1 + static_cast<std::uint64_t>(round);
    const auto ops = MakeOps(p);
    const crypto::Digest message =
        EndorsementMessage(p.Digest(), WriteSetDigest(ops));
    const std::size_t n = rng.NextBelow(6);  // 0..5 endorsements
    std::vector<Endorsement> endorsements;
    for (std::size_t i = 0; i < n; ++i) {
      const crypto::PrivateKey& org = org_keys_[rng.NextBelow(4)];
      Endorsement e{org.id(), org.Sign(kEndorseContext, message)};
      switch (rng.NextBelow(8)) {
        case 0:  // registered key outside the organization set
          e = Endorsement{intruder_.id(),
                          intruder_.Sign(kEndorseContext, message)};
          break;
        case 1:  // a key the PKI has never seen
          e.org = kUnregistered;
          break;
        case 2:  // an earlier endorser again, well or badly signed
          if (!endorsements.empty()) {
            e.org = endorsements[rng.NextBelow(endorsements.size())].org;
          }
          break;
        case 3:  // bad signature
          e.signature = RandomSignature(rng);
          break;
        case 4:  // signed under the wrong context
          e.signature = org.Sign(kTxContext, message);
          break;
        default:
          break;
      }
      endorsements.push_back(e);
    }
    const bool bad_client = rng.NextBelow(6) == 0;
    const auto tx = Transaction::Assemble(p, ops, std::move(endorsements),
                                          bad_client ? intruder_ : client_key_);
    const EndorsementPolicy policy{
        1 + static_cast<std::uint32_t>(rng.NextBelow(4)), 4};
    const TxVerdict expected = ScalarVerdict(*tx, pki_, org_key_ids_, policy);
    ASSERT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy), expected)
        << "round " << round << " expected " << TxVerdictName(expected);
    ++seen_verdicts[expected];
  }
  // The generator reaches every verdict the signature checks can produce.
  for (const TxVerdict v :
       {TxVerdict::kValid, TxVerdict::kBadClientSignature,
        TxVerdict::kInsufficientEndorsements, TxVerdict::kUnknownEndorser,
        TxVerdict::kDuplicateEndorser, TxVerdict::kBadEndorsementSignature}) {
    EXPECT_GE(seen_verdicts[v], 20) << TxVerdictName(v);
  }
}

TEST_F(VerifyReference, CountValidDistinctMatchesFirstEntryRule) {
  const std::string_view context = "orderless.test";
  const crypto::Digest digest =
      crypto::Sha256::Hash(std::string_view("attested"));
  const crypto::PrivateKey& a = org_keys_[0];
  const crypto::Signature good = a.Sign(context, digest);
  const crypto::Signature bad = a.Sign(kTxContext, digest);
  // A bad first entry is not rescued by a good duplicate.
  EXPECT_EQ(pki_.CountValidDistinct(context, digest,
                                    {{a.id(), bad}, {a.id(), good}},
                                    org_key_ids_),
            0u);
  EXPECT_EQ(pki_.CountValidDistinct(context, digest,
                                    {{a.id(), good}, {a.id(), bad}},
                                    org_key_ids_),
            1u);

  Rng rng(77);
  for (int round = 0; round < 3000; ++round) {
    const std::size_t n = rng.NextBelow(6);  // 0..5 signatures
    std::vector<std::pair<crypto::KeyId, crypto::Signature>> sigs;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng.NextBelow(6);
      const crypto::PrivateKey& signer =
          pick < 4 ? org_keys_[pick] : intruder_;
      crypto::Signature sig = signer.Sign(context, digest);
      if (rng.NextBelow(3) == 0) sig = RandomSignature(rng);
      sigs.emplace_back(pick == 5 ? kUnregistered : signer.id(), sig);
    }
    ASSERT_EQ(pki_.CountValidDistinct(context, digest, sigs, org_key_ids_),
              FirstEntryCount(pki_, context, digest, sigs, org_key_ids_))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------

TEST(OpEmitterTest, SequencesAreUnique) {
  OpEmitter emit(clk::OpClock{7, 3});
  emit.Add("c", crdt::CrdtType::kGCounter, {}, 1);
  emit.Assign("r", crdt::CrdtType::kMVRegister, {}, crdt::Value(true));
  emit.Insert("m", crdt::CrdtType::kMap, {"k"}, crdt::CrdtType::kMVRegister);
  const auto ops = emit.Take();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].seq, 0u);
  EXPECT_EQ(ops[1].seq, 1u);
  EXPECT_EQ(ops[2].seq, 2u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.clock, (clk::OpClock{7, 3}));
  }
}

/// ReadContext over a plain cache for contract unit tests.
class CacheContext final : public ReadContext {
 public:
  explicit CacheContext(ledger::CrdtCache& cache) : cache_(cache) {}
  crdt::ReadResult ReadObject(
      const std::string& object_id,
      const std::vector<std::string>& path) const override {
    return cache_.Read(object_id, path);
  }

 private:
  ledger::CrdtCache& cache_;
};

TEST(Contracts, VotingVoteAndCount) {
  contracts::VotingContract voting;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 42;
  in.clock = clk::OpClock{42, 1};
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{1}),
             crdt::Value(std::int64_t{4})};
  const auto result = voting.Invoke(ctx, "Vote", in);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.ops.size(), 4u);  // one op per party (paper §6)
  cache.Apply(result.ops);

  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 1), 1);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 0), 0);

  // Vote switch: same voter votes party 3; only the new vote counts.
  in.clock = clk::OpClock{42, 2};
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{3}),
             crdt::Value(std::int64_t{4})};
  cache.Apply(voting.Invoke(ctx, "Vote", in).ops);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 1), 0);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 3), 1);

  Invocation read;
  read.args = {crdt::Value("e1"), crdt::Value(std::int64_t{3})};
  const auto count = voting.Invoke(ctx, "ReadVoteCount", read);
  ASSERT_TRUE(count.ok);
  EXPECT_EQ(count.value, crdt::Value(std::int64_t{1}));
}

TEST(Contracts, VotingRejectsBadArgs) {
  contracts::VotingContract voting;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);
  Invocation in;
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{9}),
             crdt::Value(std::int64_t{4})};
  EXPECT_FALSE(voting.Invoke(ctx, "Vote", in).ok);  // party out of range
  in.args = {};
  EXPECT_FALSE(voting.Invoke(ctx, "Vote", in).ok);
  EXPECT_FALSE(voting.Invoke(ctx, "Nonexistent", in).ok);
}

TEST(Contracts, AuctionIncreaseOnlyBids) {
  contracts::AuctionContract auction;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation bid;
  bid.client = 1;
  bid.clock = clk::OpClock{1, 1};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{10})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  bid.client = 2;
  bid.clock = clk::OpClock{2, 1};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{25})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  bid.client = 1;
  bid.clock = clk::OpClock{1, 2};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{20})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  // Bidder 1's cumulative bid is 30, which beats bidder 2's 25.
  const auto [best, winner] = contracts::AuctionContract::HighestBid(ctx, "a1");
  EXPECT_EQ(best, 30);
  EXPECT_EQ(winner, contracts::AuctionContract::BidderKey(1));

  // The increase-only invariant: non-positive bids never become operations.
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{-5})};
  EXPECT_FALSE(auction.Invoke(ctx, "Bid", bid).ok);
}

TEST(Contracts, SyntheticModifyAndRead) {
  contracts::SyntheticContract synthetic;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 5;
  in.clock = clk::OpClock{5, 1};
  in.args = {crdt::Value(std::int64_t{3}), crdt::Value(std::int64_t{2}),
             crdt::Value(std::string(contracts::kTypeGCounter))};
  const auto result = synthetic.Invoke(ctx, "Modify", in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.ops.size(), 6u);  // ObjCount × OpsPerObjCount
  cache.Apply(result.ops);

  Invocation read;
  read.args = {crdt::Value(std::int64_t{3}),
               crdt::Value(std::string(contracts::kTypeGCounter))};
  const auto r = synthetic.Invoke(ctx, "Read", read);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, crdt::Value(std::int64_t{6}));
  EXPECT_EQ(r.objects_read, 3u);
}

TEST(Contracts, SupplyChainViolations) {
  contracts::SupplyChainContract supply;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 9;
  auto record = [&](std::uint64_t counter, const char* sensor, double temp) {
    in.clock = clk::OpClock{9, counter};
    in.args = {crdt::Value("ship1"), crdt::Value(std::string(sensor)),
               crdt::Value(temp), crdt::Value(8.0)};
    const auto result = supply.Invoke(ctx, "RecordReading", in);
    ASSERT_TRUE(result.ok) << result.error;
    cache.Apply(result.ops);
  };
  record(1, "s1", 5.0);
  record(2, "s1", 9.5);   // violation
  record(3, "s2", 11.0);  // violation

  Invocation read;
  read.args = {crdt::Value("ship1")};
  const auto violations = supply.Invoke(ctx, "GetViolations", read);
  ASSERT_TRUE(violations.ok);
  EXPECT_EQ(violations.value, crdt::Value(std::int64_t{2}));

  read.args = {crdt::Value("ship1"), crdt::Value(std::string("s1"))};
  const auto last = supply.Invoke(ctx, "GetLastReading", read);
  ASSERT_TRUE(last.ok);
  EXPECT_EQ(last.value, crdt::Value(9.5));
}

TEST(Contracts, FileStoreRegisterGetDelete) {
  contracts::FileStoreContract files;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 3;
  in.clock = clk::OpClock{3, 1};
  in.args = {crdt::Value("report.pdf"), crdt::Value("digest-abc")};
  cache.Apply(files.Invoke(ctx, "RegisterFile", in).ops);

  Invocation get;
  get.args = {crdt::Value("report.pdf")};
  EXPECT_EQ(files.Invoke(ctx, "GetFile", get).value,
            crdt::Value("digest-abc"));
  EXPECT_EQ(files.Invoke(ctx, "ListFiles", Invocation{}).value,
            crdt::Value(std::int64_t{1}));

  in.clock = clk::OpClock{3, 2};
  in.args = {crdt::Value("report.pdf")};
  cache.Apply(files.Invoke(ctx, "DeleteFile", in).ops);
  EXPECT_EQ(files.Invoke(ctx, "GetFile", get).value,
            crdt::Value(std::string()));
  EXPECT_EQ(files.Invoke(ctx, "ListFiles", Invocation{}).value,
            crdt::Value(std::int64_t{0}));
}

TEST(Registry, FindsRegisteredContracts) {
  ContractRegistry registry;
  registry.Register(std::make_shared<contracts::VotingContract>());
  registry.Register(std::make_shared<contracts::AuctionContract>());
  EXPECT_NE(registry.Find("voting"), nullptr);
  EXPECT_NE(registry.Find("auction"), nullptr);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

}  // namespace
}  // namespace orderless::core
