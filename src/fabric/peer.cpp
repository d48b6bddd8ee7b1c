#include "fabric/peer.h"

#include <vector>

#include "crdt/object.h"
#include "sim/costs.h"

namespace orderless::fabric {

namespace cost = sim::cost;

Peer::Peer(sim::Simulation& simulation, sim::Network& network,
           sim::NodeId node, crypto::PrivateKey key,
           const FabricContractRegistry& contracts, PeerConfig config)
    : simulation_(simulation),
      network_(network),
      node_(node),
      key_(key),
      contracts_(contracts),
      config_(config),
      cpu_(simulation, cost::kNodeCores) {}

void Peer::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
}

void Peer::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* proposal =
          dynamic_cast<const FabProposalMsg*>(delivery.message.get())) {
    HandleProposal(delivery.from, proposal->proposal);
    return;
  }
  if (const auto* block =
          dynamic_cast<const FabBlockMsg*>(delivery.message.get())) {
    HandleBlock(block->block);
    return;
  }
}

void Peer::HandleProposal(sim::NodeId from, const FabProposal& proposal) {
  const sim::SimTime arrival = simulation_.now();
  // Execution happens at dequeue time.
  cpu_.Submit(cost::kFabricEndorse, [this, from, proposal, arrival] {
    ++endorse_count_;
    endorse_time_us_ += simulation_.now() - arrival;
    auto reply = std::make_shared<FabEndorseReplyMsg>();
    reply->proposal_digest = proposal.Digest();
    const FabricContract* contract = contracts_.Find(proposal.contract);
    if (contract == nullptr) {
      reply->ok = false;
      reply->error = "unknown contract";
      network_.Send(node_, from, reply);
      return;
    }
    FabricResult result =
        contract->Invoke(state_, proposal.function, proposal.client,
                         proposal.nonce, proposal.args);
    if (!result.ok) {
      reply->ok = false;
      reply->error = result.error;
      network_.Send(node_, from, reply);
      return;
    }
    reply->ok = true;
    reply->rwset = std::move(result.rwset);
    reply->read_value = std::move(result.value);
    reply->org = key_.id();
    // Signature binds the proposal to the produced read/write set.
    codec::Writer w;
    for (const auto& [k, v] : reply->rwset.reads) {
      w.PutString(k);
      w.PutU64(v);
    }
    for (const auto& [k, v] : reply->rwset.writes) {
      w.PutString(k);
      v.Encode(w);
    }
    reply->signature = key_.Sign(
        "fabric.endorse",
        crypto::Sha256::Hash(BytesView(w.data())));
    network_.Send(node_, from, reply);
  });
}

void Peer::HandleBlock(std::shared_ptr<const FabBlock> block) {
  // Validation cost: per-transaction signature and read checks plus writes.
  sim::SimTime service = cost::kFabricValidateBase;
  sim::SimTime read_checks = 0;
  for (const auto& tx : block->txs) {
    service += cost::kFabricVerifySig * (tx->endorsement_count + 1);
    read_checks += cost::kFabricReadCheck * tx->rwset.reads.size();
    service += cost::kFabricWrite * tx->rwset.writes.size();
    if (config_.mode == ValidationMode::kCrdtMerge) {
      service +=
          cost::kFabricCrdtMergePerKb * (tx->rwset.WireSize() / 1024 + 1);
    }
  }
  if (config_.mode == ValidationMode::kMvcc) {
    // Lockless committer: read-set checks never mutate the version table,
    // so the block's checks fan out across the peer's cores; only the
    // serial write-apply keeps its full cost. Pure integer arithmetic —
    // deterministic for any core count.
    service += (read_checks + cost::kNodeCores - 1) / cost::kNodeCores;
  } else {
    service += read_checks;
  }
  const sim::SimTime arrival = simulation_.now();
  cpu_.Submit(service,
              [this, block, arrival] { CommitBlock(*block, arrival); });
}

void Peer::CommitBlock(const FabBlock& block, sim::SimTime arrival) {
  // Phase 1 (MVCC only) — lockless read-set validation: every transaction's
  // reads are checked against the committed version table plus a
  // block-local write shadow holding the version bumps of earlier *valid*
  // transactions in this block. The shadow reproduces exactly what each
  // transaction would have seen under the serial lock-and-apply committer,
  // so verdicts are bit-identical — but no check mutates the store, which
  // is what lets HandleBlock spread this phase across cores.
  std::vector<bool> valid(block.txs.size(), true);
  if (config_.mode == ValidationMode::kMvcc) {
    std::unordered_map<std::string, std::uint64_t> shadow;
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
      const FabTransaction& tx = *block.txs[i];
      bool ok = true;
      for (const auto& [key, version] : tx.rwset.reads) {
        const auto it = shadow.find(key);
        const std::uint64_t bump = it == shadow.end() ? 0 : it->second;
        if (state_.VersionOf(key) + bump != version) {
          ok = false;
          break;
        }
      }
      valid[i] = ok;
      if (ok) {
        for (const auto& [key, value] : tx.rwset.writes) ++shadow[key];
      }
    }
  }
  // Table 3's commit phase: block arrival to its transactions committed.
  commit_count_ += block.txs.size();
  commit_time_us_ += (simulation_.now() - arrival) * block.txs.size();
  // Phase 2 — apply the valid transactions' writes serially in block order.
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    const auto& tx = block.txs[i];
    if (config_.emits_events && tx->order_submit_time > 0) {
      ++consensus_count_;
      consensus_time_us_ += simulation_.now() - tx->order_submit_time;
    }
    bool is_valid;
    if (config_.mode == ValidationMode::kMvcc) {
      is_valid = valid[i];
      if (is_valid) {
        for (const auto& [key, value] : tx->rwset.writes) {
          state_.Put(key, value);
        }
      }
    } else {
      is_valid = ApplyTransaction(*tx);
    }
    if (is_valid) {
      ++committed_valid_;
    } else {
      ++committed_invalid_;
    }
    if (config_.emits_events && tx->client_node != 0) {
      auto event = std::make_shared<FabCommitEventMsg>();
      event->tx_id = tx->id;
      event->valid = is_valid;
      network_.Send(node_, tx->client_node, event);
    }
  }
}

bool Peer::ApplyTransaction(const FabTransaction& tx) {
  // FabricCRDT: merge the incoming full-object states into the stored ones;
  // nothing is rejected.
  for (const auto& [key, value] : tx.rwset.writes) {
    if (!value.IsString()) {
      state_.Put(key, value);
      continue;
    }
    const VersionedValue current = state_.Get(key);
    if (current.version == 0 || !current.value.IsString()) {
      state_.Put(key, value);
      continue;
    }
    const std::string& mine = current.value.AsString();
    const std::string& theirs = value.AsString();
    auto a = crdt::CrdtObject::DecodeState(
        key, BytesView(reinterpret_cast<const std::uint8_t*>(mine.data()),
                       mine.size()));
    auto b = crdt::CrdtObject::DecodeState(
        key, BytesView(reinterpret_cast<const std::uint8_t*>(theirs.data()),
                       theirs.size()));
    if (a == nullptr || b == nullptr) {
      state_.Put(key, value);  // not CRDT state: last write wins
      continue;
    }
    a->MergeState(*b);
    const Bytes merged = a->EncodeState();
    state_.Put(key, crdt::Value(std::string(merged.begin(), merged.end())));
  }
  return true;
}

}  // namespace orderless::fabric
