#include <gtest/gtest.h>

#include <limits>

#include "codec/codec.h"
#include "common/rng.h"
#include "ledger/ledger.h"

namespace orderless::ledger {
namespace {

crypto::Digest D(std::string_view s) { return crypto::Sha256::Hash(s); }

crdt::Operation CounterAdd(const std::string& object, std::int64_t v,
                           std::uint64_t client, std::uint64_t counter) {
  crdt::Operation op;
  op.object_id = object;
  op.object_type = crdt::CrdtType::kGCounter;
  op.kind = crdt::OpKind::kAddValue;
  op.value_type = crdt::CrdtType::kGCounter;
  op.value = crdt::Value(v);
  op.clock = clk::OpClock{client, counter};
  return op;
}

TEST(HashChain, AppendsAndVerifies) {
  HashChainLog log;
  log.Append(D("tx1"), true);
  log.Append(D("tx2"), false);
  log.Append(D("tx3"), true);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_TRUE(log.Verify());
  EXPECT_EQ(log.at(1).height, 1u);
  EXPECT_EQ(log.at(1).prev_hash, log.at(0).hash);
  EXPECT_FALSE(log.at(1).valid);
}

TEST(HashChain, TamperingIsDetectedAndPoisonsSuffix) {
  HashChainLog log;
  for (int i = 0; i < 5; ++i) log.Append(D("tx" + std::to_string(i)), true);
  ASSERT_TRUE(log.Verify());
  // A Byzantine organization rewrites one transaction.
  log.MutableBlockForTest(2).tx_digest = D("forged");
  EXPECT_FALSE(log.Verify());
  EXPECT_EQ(log.FirstInvalidBlock(), 2u);
}

TEST(HashChain, TamperingTheHashItselfBreaksTheLink) {
  HashChainLog log;
  for (int i = 0; i < 4; ++i) log.Append(D("tx" + std::to_string(i)), true);
  // Recompute block 1's hash over forged content: block 1 now verifies
  // alone, but block 2's prev link exposes it.
  Block& b = log.MutableBlockForTest(1);
  b.tx_digest = D("forged");
  b.hash = Block::ComputeHash(b.height, b.prev_hash, b.tx_digest, b.valid);
  EXPECT_EQ(log.FirstInvalidBlock(), 2u);
}

// The block-header bytes written through the codec: u64 height, previous
// hash, tx digest, verdict byte.
crypto::Digest CodecBlockHash(std::uint64_t height, const crypto::Digest& prev,
                              const crypto::Digest& tx, bool valid) {
  codec::Writer w;
  w.PutU64(height);
  w.PutRaw(prev.View());
  w.PutRaw(tx.View());
  w.PutBool(valid);
  return crypto::Sha256::Hash(BytesView(w.data()));
}

crypto::Digest RandomDigest(Rng& rng) {
  crypto::Digest d;
  for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.Next());
  return d;
}

TEST(HashChain, BlockHashMatchesCodecLayout) {
  for (const std::uint64_t height :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 32,
        std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    for (const bool valid : {false, true}) {
      EXPECT_EQ(Block::ComputeHash(height, D("prev"), D("tx"), valid),
                CodecBlockHash(height, D("prev"), D("tx"), valid))
          << height << " " << valid;
    }
  }
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t height = rng.Next();
    const crypto::Digest prev = RandomDigest(rng);
    const crypto::Digest tx = RandomDigest(rng);
    const bool valid = rng.NextBool(0.5);
    ASSERT_EQ(Block::ComputeHash(height, prev, tx, valid),
              CodecBlockHash(height, prev, tx, valid))
        << "case " << i;
  }
}

TEST(HashChain, RollingModePreservesChainHash) {
  HashChainLog full;
  HashChainLog rolling;
  rolling.SetRolling(true);
  for (int i = 0; i < 10; ++i) {
    full.Append(D("tx" + std::to_string(i)), true);
    rolling.Append(D("tx" + std::to_string(i)), true);
  }
  EXPECT_EQ(rolling.size(), 1u);
  EXPECT_EQ(full.size(), 10u);
  EXPECT_EQ(rolling.LastHash(), full.LastHash());
  EXPECT_EQ(rolling.total_appended(), 10u);
  EXPECT_TRUE(rolling.Verify());
}

TEST(MemKv, PutGetDeleteScan) {
  MemKvStore kv;
  kv.Put("a/1", ToBytes("x"));
  kv.Put("a/2", ToBytes("y"));
  kv.Put("b/1", ToBytes("z"));
  EXPECT_EQ(kv.Get("a/1"), ToBytes("x"));
  EXPECT_FALSE(kv.Get("missing").has_value());
  kv.Delete("a/1");
  EXPECT_FALSE(kv.Get("a/1").has_value());

  std::vector<std::string> keys;
  kv.ScanPrefix("a/", [&keys](std::string_view key, BytesView) {
    keys.emplace_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a/2"}));
  EXPECT_EQ(kv.ApproximateCount(), 2u);
}

TEST(Cache, ReadYourWrites) {
  CrdtCache cache;
  cache.Apply({CounterAdd("c", 5, 1, 1)});
  EXPECT_EQ(cache.Read("c").counter, 5);
  cache.Apply({CounterAdd("c", 3, 1, 2)});
  EXPECT_EQ(cache.Read("c").counter, 8);
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST(Cache, MissingObjectReadsAbsent) {
  CrdtCache cache;
  EXPECT_FALSE(cache.Read("nope").exists);
}

TEST(Ledger, CommitValidUpdatesEverything) {
  Ledger ledger(std::make_shared<MemKvStore>());
  const auto tx = D("tx1");
  const Block& block = ledger.Commit(tx, true, {CounterAdd("c", 5, 1, 1)});
  EXPECT_EQ(block.height, 0u);
  EXPECT_TRUE(ledger.HasTransaction(tx));
  EXPECT_FALSE(ledger.HasTransaction(D("other")));
  EXPECT_EQ(ledger.Read("c").counter, 5);
  EXPECT_EQ(ledger.committed_valid(), 1u);
}

TEST(Ledger, InvalidTransactionsAreBookkeptButNotApplied) {
  Ledger ledger(std::make_shared<MemKvStore>());
  ledger.Commit(D("bad"), false, {CounterAdd("c", 5, 1, 1)});
  EXPECT_TRUE(ledger.HasTransaction(D("bad")));  // on the log
  EXPECT_FALSE(ledger.Read("c").exists);         // not in the state
  EXPECT_EQ(ledger.committed_invalid(), 1u);
  EXPECT_EQ(ledger.log().size(), 1u);
  EXPECT_FALSE(ledger.log().at(0).valid);
}

TEST(Ledger, RebuildCacheFromStore) {
  Ledger ledger(std::make_shared<MemKvStore>());
  ledger.Commit(D("t1"), true, {CounterAdd("c", 5, 1, 1)});
  ledger.Commit(D("t2"), true, {CounterAdd("c", 7, 2, 1)});
  EXPECT_EQ(ledger.Read("c").counter, 12);
  // Simulate a restart: the cache is rebuilt by replaying persisted ops.
  ledger.RebuildCacheFromStore();
  EXPECT_EQ(ledger.Read("c").counter, 12);
}

TEST(Ledger, LightweightOptionsSkipPersistence) {
  LedgerOptions options;
  options.persist_ops = false;
  options.rolling_log = true;
  options.track_tx_keys = false;
  Ledger ledger(std::make_shared<MemKvStore>(), options);
  ledger.Commit(D("t1"), true, {CounterAdd("c", 5, 1, 1)});
  ledger.Commit(D("t2"), true, {CounterAdd("c", 2, 1, 2)});
  EXPECT_EQ(ledger.Read("c").counter, 7);       // cache still works
  EXPECT_EQ(ledger.log().size(), 1u);           // rolling
  EXPECT_EQ(ledger.log().total_appended(), 2u);
  EXPECT_FALSE(ledger.HasTransaction(D("t1")));  // not tracked
}

TEST(Ledger, SameObjectAcrossLedgersConverges) {
  // Two organizations committing the same transactions in different orders
  // end with identical state (Lemma 6.1 at the ledger level).
  Ledger a(std::make_shared<MemKvStore>());
  Ledger b(std::make_shared<MemKvStore>());
  const std::vector<crdt::Operation> t1 = {CounterAdd("c", 5, 1, 1)};
  const std::vector<crdt::Operation> t2 = {CounterAdd("c", 9, 2, 1)};
  a.Commit(D("t1"), true, t1);
  a.Commit(D("t2"), true, t2);
  b.Commit(D("t2"), true, t2);
  b.Commit(D("t1"), true, t1);
  EXPECT_EQ(a.Read("c").counter, b.Read("c").counter);
  EXPECT_EQ(a.cache().EncodeObjectState("c"), b.cache().EncodeObjectState("c"));
}

}  // namespace
}  // namespace orderless::ledger
