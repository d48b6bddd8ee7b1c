#include "ledger/ledger.h"

#include <algorithm>

#include "codec/codec.h"

namespace orderless::ledger {

Ledger::Ledger(std::shared_ptr<KvStore> store, LedgerOptions options)
    : store_(std::move(store)), options_(options) {
  log_.SetRolling(options_.rolling_log);
}

std::string Ledger::TxKey(const crypto::Digest& tx_digest) {
  return "tx/" + tx_digest.Hex();
}

std::string Ledger::BodyKey(const crypto::Digest& tx_digest) {
  return "body/" + tx_digest.Hex();
}

void Ledger::PutTransactionBody(const crypto::Digest& tx_digest,
                                BytesView encoded) {
  store_->Put(BodyKey(tx_digest), encoded);
}

void Ledger::ScanTransactionBodies(
    const std::function<void(BytesView encoded)>& visitor) const {
  store_->ScanPrefix("body/", [&visitor](std::string_view key, BytesView value) {
    (void)key;
    visitor(value);
    return true;
  });
}

std::string Ledger::OpKey(const crdt::Operation& op) {
  // "op/<object id>/<client>.<counter>.<seq>.<8 hex of the content digest>",
  // object id first so a prefix scan groups one object's operations.
  const auto id = op.id();
  const crypto::Digest content = op.ContentDigest();
  return "op/" + op.object_id + "/" + std::to_string(id.client) + "." +
         std::to_string(id.counter) + "." + std::to_string(id.seq) + "." +
         ToHex(content.View().first(4));
}

const Block& Ledger::Commit(const crypto::Digest& tx_digest, bool valid,
                            const std::vector<crdt::Operation>& ops) {
  const Block& block = log_.Append(tx_digest, valid);
  if (options_.track_tx_keys) {
    // height ‖ verdict ‖ block hash: enough to rebuild the commit index and
    // the hash chain (and to cross-check it) after a crash.
    codec::Writer record;
    record.PutU64(block.height);
    record.PutBool(block.valid);
    record.PutBytes(block.hash.View());
    store_->Put(TxKey(tx_digest), BytesView(record.data()));
  }
  if (valid) {
    ++committed_valid_;
    if (options_.persist_ops) {
      codec::Writer w;
      for (const auto& op : ops) {
        w.Clear();
        op.Encode(w);
        store_->Put(OpKey(op), BytesView(w.data()));
      }
    }
    cache_.Apply(ops);
  } else {
    ++committed_invalid_;
  }
  return block;
}

bool Ledger::HasTransaction(const crypto::Digest& tx_digest) const {
  return store_->Get(TxKey(tx_digest)).has_value();
}

crdt::ReadResult Ledger::Read(const std::string& object_id,
                              const std::vector<std::string>& path) const {
  return cache_.Read(object_id, path);
}

std::vector<Ledger::RecoveredTx> Ledger::RecoverCommitIndex() const {
  std::vector<RecoveredTx> records;
  store_->ScanPrefix("tx/", [&records](std::string_view key, BytesView value) {
    codec::Reader r(value);
    RecoveredTx rec;
    rec.id = crypto::Digest::FromHexOrZero(key.substr(3));
    const auto height = r.GetU64();
    const auto valid = r.GetBool();
    const auto hash = r.GetBytes();
    if (!height || !valid || !hash || hash->size() != rec.block_hash.bytes.size()) {
      return true;  // pre-upgrade or torn record: skip it
    }
    rec.height = *height;
    rec.valid = *valid;
    std::copy(hash->begin(), hash->end(), rec.block_hash.bytes.begin());
    records.push_back(rec);
    return true;
  });
  std::sort(records.begin(), records.end(),
            [](const RecoveredTx& a, const RecoveredTx& b) {
              return a.height < b.height;
            });
  return records;
}

bool Ledger::RecoverFromStore() { return RecoverFromStore(RecoveryBase{}); }

bool Ledger::RecoverFromStore(const RecoveryBase& base) {
  log_ = HashChainLog();
  log_.SetRolling(options_.rolling_log);
  if (base.chain_height > 0) {
    log_.SeedBase(base.chain_height, base.chain_head);
  }
  committed_valid_ = 0;
  committed_invalid_ = 0;
  last_recovered_records_ = 0;
  bool consistent = true;
  for (const RecoveredTx& rec : RecoverCommitIndex()) {
    // Records below the checkpoint boundary are covered by the snapshot;
    // they normally no longer exist (pruned at seal), but a crash between
    // sealing and pruning can leave some behind — skip, don't double-count.
    if (rec.height < base.chain_height) continue;
    const Block& block = log_.Append(rec.id, rec.valid);
    if (block.hash != rec.block_hash) consistent = false;
    ++last_recovered_records_;
    if (rec.valid) {
      ++committed_valid_;
    } else {
      ++committed_invalid_;
    }
  }
  cache_.Clear();
  if (base.object_states != nullptr) {
    for (const auto& [object_id, state] : *base.object_states) {
      cache_.MergeEncodedState(object_id, BytesView(state));
    }
  }
  ReplayOpsFromStore();
  return consistent;
}

void Ledger::PutCheckpointBlob(std::string_view slot, BytesView encoded) {
  store_->Put(std::string("ckpt/") + std::string(slot), encoded);
}

std::optional<Bytes> Ledger::GetCheckpointBlob(std::string_view slot) const {
  return store_->Get(std::string("ckpt/") + std::string(slot));
}

std::size_t Ledger::PruneBehindCheckpoint(
    std::uint64_t chain_height, const crypto::Digest& chain_head,
    const std::vector<crypto::Digest>& covered_ids) {
  std::vector<std::string> doomed;
  // Commit records strictly below the frontier: the checkpoint's covered set
  // replaces them as the dedup/commit index for that prefix.
  store_->ScanPrefix(
      "tx/", [&doomed, chain_height](std::string_view key, BytesView value) {
        codec::Reader r(value);
        const auto height = r.GetU64();
        if (height && *height < chain_height) doomed.emplace_back(key);
        return true;
      });
  // Every persisted operation: the sealed snapshot is their join, and ops
  // committed after this call start accumulating again for the next delta.
  store_->ScanPrefix("op/", [&doomed](std::string_view key, BytesView value) {
    (void)value;
    doomed.emplace_back(key);
    return true;
  });
  const std::size_t rows_before_bodies = doomed.size();
  for (const crypto::Digest& id : covered_ids) {
    doomed.push_back(BodyKey(id));
  }
  std::size_t pruned = rows_before_bodies;
  for (std::size_t i = rows_before_bodies; i < doomed.size(); ++i) {
    if (store_->Get(doomed[i]).has_value()) ++pruned;
  }
  for (const std::string& key : doomed) store_->Delete(key);
  log_.PruneBelow(chain_height, chain_head);
  return pruned;
}

void Ledger::RebuildCacheFromStore() {
  cache_.Clear();
  ReplayOpsFromStore();
}

void Ledger::ReplayOpsFromStore() {
  std::vector<crdt::Operation> ops;
  store_->ScanPrefix("op/", [&ops](std::string_view key, BytesView value) {
    (void)key;
    codec::Reader r(value);
    auto op = crdt::Operation::Decode(r);
    if (op) ops.push_back(std::move(*op));
    return true;
  });
  cache_.Apply(ops);
}

}  // namespace orderless::ledger
