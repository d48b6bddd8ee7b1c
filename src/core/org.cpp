#include "core/org.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "crdt/object.h"
#include "obs/trace.h"

namespace orderless::core {

namespace cost = sim::cost;

namespace {

/// True when `a` is preferred over `b` (null = nothing held): more covered
/// valid commits, then the larger digest, so every org picks the same.
bool Outranks(const Checkpoint& a, const Checkpoint* b) {
  return b == nullptr || a.valid_count > b->valid_count ||
         (a.valid_count == b->valid_count && a.digest.bytes > b->digest.bytes);
}

/// Persists `ckpt` in checkpoint slot `slot`, followed by the quorum
/// evidence that admitted it when there is one: a single store record, so
/// no crash can leave a checkpoint apart from its evidence.
void PutCheckpoint(ledger::Ledger& ledger, std::string_view slot,
                   const Checkpoint& ckpt, const AttestationSet* evidence) {
  codec::Writer w;
  ckpt.Encode(w);
  if (evidence != nullptr) evidence->Encode(w);
  ledger.PutCheckpointBlob(slot, BytesView(w.data()));
}

/// Reads back what PutCheckpoint wrote; null when the slot is empty or the
/// record (with `evidence`, its attestation set too) does not decode.
std::shared_ptr<const Checkpoint> GetCheckpoint(const ledger::Ledger& ledger,
                                                std::string_view slot,
                                                AttestationSet* evidence) {
  const auto blob = ledger.GetCheckpointBlob(slot);
  if (!blob) return nullptr;
  codec::Reader r{BytesView(*blob)};
  std::shared_ptr<const Checkpoint> ckpt = Checkpoint::Decode(r);
  if (ckpt == nullptr ||
      (evidence != nullptr && !AttestationSet::Decode(r, *evidence))) {
    return nullptr;
  }
  return ckpt;
}

}  // namespace

/// Exposes the organization's cache to executing contracts.
class Organization::LedgerReadContext final : public ReadContext {
 public:
  explicit LedgerReadContext(const ledger::Ledger& ledger) : ledger_(ledger) {}
  crdt::ReadResult ReadObject(
      const std::string& object_id,
      const std::vector<std::string>& path) const override {
    return ledger_.Read(object_id, path);
  }

 private:
  const ledger::Ledger& ledger_;
};

Organization::Organization(sim::Simulation& simulation, sim::Network& network,
                           sim::NodeId node, crypto::PrivateKey key,
                           const crypto::Pki& pki,
                           const ContractRegistry& contracts,
                           EndorsementPolicy policy, OrgTimingConfig timing,
                           Rng rng, std::shared_ptr<ledger::KvStore> store)
    : simulation_(simulation),
      network_(network),
      node_(node),
      key_(key),
      pki_(pki),
      contracts_(contracts),
      policy_(policy),
      timing_(timing),
      rng_(rng),
      cpu_(simulation, cost::kNodeCores),
      cache_lock_(simulation, 1),
      ledger_(store ? std::move(store)
                    : std::make_shared<ledger::MemKvStore>(),
              timing.ledger_options) {}

void Organization::Start() {
  running_ = true;
  network_.Register(node_,
                    [this](const sim::Delivery& d) { OnDelivery(d); });
  // Random phase offset: organizations do not share a clock, so their
  // periodic gossip is naturally desynchronized. Start() runs on the
  // harness lane, so the first tick must explicitly target this org's
  // lane; once ticking, the timer chain reschedules from within the tick
  // and stays on it.
  const sim::ActorId actor = simulation_.ActorOf(node_);
  simulation_.ScheduleFor(actor, rng_.NextBelow(timing_.gossip_interval) + 1,
                          [this] { GossipTick(); });
  if (timing_.antientropy_interval > 0) {
    simulation_.ScheduleFor(
        actor,
        timing_.antientropy_interval +
            rng_.NextBelow(timing_.antientropy_interval),
        [this] { AntiEntropyTick(); });
  }
  // Only checkpointing orgs draw this offset, so checkpoint-off runs draw
  // exactly the same rng stream as before this subsystem existed
  // (bit-identical replays).
  if (timing_.checkpoint.interval > 0) {
    simulation_.ScheduleFor(
        actor,
        timing_.checkpoint.interval +
            rng_.NextBelow(timing_.checkpoint.interval),
        [this] { CheckpointTick(); });
  }
}

void Organization::Stop() {
  running_ = false;
  network_.Unregister(node_);
}

bool Organization::RecoverFromLedger() {
  // Load the persisted checkpoints first: an own seal seeds the chain base
  // (the prefix behind it was pruned) and supplies the snapshot states the
  // op replay builds on — O(delta) recovery instead of O(history). The
  // promoted own seal and the installed checkpoint were each persisted with
  // their quorum evidence only after a quorum check, so a decode suffices.
  std::shared_ptr<const Checkpoint> sealed;
  std::shared_ptr<const Checkpoint> attested;
  std::shared_ptr<const Checkpoint> installed;
  AttestationSet attested_set;
  AttestationSet installed_set;
  if (timing_.checkpoint.interval > 0) {
    sealed = GetCheckpoint(ledger_, "sealed", nullptr);
    attested = GetCheckpoint(ledger_, "attested", &attested_set);
    installed = GetCheckpoint(ledger_, "installed", &installed_set);
  }
  ledger::Ledger::RecoveryBase base;
  if (sealed && sealed->origin == key_.id()) {
    base.chain_height = sealed->chain_height;
    base.chain_head = sealed->chain_head;
    base.object_states = &sealed->objects;
  } else {
    sealed = nullptr;  // never seed a chain base from someone else's seal
  }
  const bool consistent = ledger_.RecoverFromStore(base);
  catchup_stats_.recovered_records += ledger_.last_recovered_records();
  txs_.clear();
  committed_count_ = 0;
  committed_xor_ = 0;
  ckpt_external_valid_ = 0;
  for (const auto& rec : ledger_.RecoverCommitIndex()) {
    TxEntry& entry = txs_.FindOrInsert(rec.id).first;
    entry.committed = true;
    entry.valid = rec.valid;
    entry.block_hash = rec.block_hash;
    if (rec.valid) {
      ++committed_count_;
      committed_xor_ ^= rec.id.Prefix64();
    }
  }
  committed_ids_ = txs_.size();
  // Coverage the pruned prefix no longer has records for comes back from
  // the checkpoints; the installed one also re-merges its object states
  // (the sealed one's went in as the recovery base above).
  if (sealed) {
    AdoptCheckpointCoverage(*sealed);
    sealed_ckpt_ = sealed;
    ckpt_seq_ = sealed->seq;
  }
  if (attested) {
    attested_ckpt_ = attested;
    attested_set_ = std::move(attested_set);
    AdoptCheckpointCoverage(*attested_ckpt_);  // idempotent vs the seal's
    // If the promoted seal is still the current one, rebuild the collected
    // signatures so a late attestation cannot re-promote it.
    if (sealed_ckpt_ && attested_ckpt_->digest == sealed_ckpt_->digest) {
      for (const CheckpointAttestation& a : attested_set_.attestations) {
        seal_attest_.emplace(a.attester, a.signature);
      }
    }
  }
  if (installed) {
    for (const auto& [object_id, state] : installed->objects) {
      ledger_.MergeObjectState(object_id, BytesView(state));
    }
    AdoptCheckpointCoverage(*installed);
    installed_ckpt_ = installed;
    installed_set_ = std::move(installed_set);
  }
  // A crash between sealing and pruning can leave records below the frontier
  // that the base-seeded replay skipped but the scan above still indexed;
  // derive the external count exactly instead of trusting the adoption sum.
  ckpt_external_valid_ = committed_count_ - ledger_.committed_valid();
  commits_at_last_seal_ = committed_count_;
  // Reload committed bodies so gossip pulls and anti-entropy syncs keep
  // working for transactions committed before the crash. Behind a sealed
  // frontier the bodies were pruned, so this reloads exactly the delta.
  // Sync replies share these objects with every requesting peer, whose lanes
  // validate them concurrently: seal them while this org is the only holder.
  committed_txs_.clear();
  if (timing_.antientropy_interval > 0) {
    ledger_.ScanTransactionBodies([this](BytesView encoded) {
      codec::Reader r(encoded);
      auto tx = Transaction::Decode(r);
      if (tx && txs_.Find(tx->id) != nullptr) {
        tx->Seal();
        committed_txs_.push_back(std::move(tx));
      }
    });
  }
  return consistent;
}

void Organization::SetPeers(std::vector<sim::NodeId> peer_nodes,
                            std::set<crypto::KeyId> org_keys) {
  peers_ = std::move(peer_nodes);
  peers_.erase(std::remove(peers_.begin(), peers_.end(), node_), peers_.end());
  org_keys_ = std::move(org_keys);
}

void Organization::OnDelivery(const sim::Delivery& delivery) {
  if (!running_) return;           // crashed
  if (delivery.corrupted) return;  // undecodable on the wire
  if (const auto* proposal =
          dynamic_cast<const ProposalMsg*>(delivery.message.get())) {
    // Aliasing share of the delivered message: the handler (and the deferred
    // execution it schedules) borrows the proposal instead of copying it.
    HandleProposal(delivery.from,
                   std::shared_ptr<const ProposalMsg>(delivery.message,
                                                      proposal));
    return;
  }
  if (const auto* commit =
          dynamic_cast<const CommitMsg*>(delivery.message.get())) {
    HandleCommit(delivery.from, commit->tx, /*from_gossip=*/false);
    return;
  }
  if (const auto* gossip =
          dynamic_cast<const GossipMsg*>(delivery.message.get())) {
    catchup_stats_.sync_txs_received += gossip->txs.size();
    for (const auto& tx : gossip->txs) {
      HandleCommit(delivery.from, tx, /*from_gossip=*/true);
    }
    return;
  }
  if (const auto* advert =
          dynamic_cast<const GossipAdvertMsg*>(delivery.message.get())) {
    // Gossip is the first work class shed under overload: skipping the pull
    // is safe because the advertiser keeps re-advertising and anti-entropy
    // repairs whatever the advert window misses.
    if (timing_.overload.enabled &&
        cpu_.Backlog() > timing_.overload.max_backlog_gossip) {
      ++overload_stats_.shed_gossip;
      return;
    }
    // Pull whatever we neither committed nor already have a pull in flight
    // for; the pending-pull retry loop in GossipTick() repairs losses.
    auto pull = std::make_shared<GossipPullMsg>();
    for (const crypto::Digest& id : advert->ids) {
      const TxEntry* entry = txs_.Find(id);
      const bool known =
          entry != nullptr && (entry->committed || entry->in_flight);
      if (known || pending_pulls_.contains(id)) continue;
      pending_pulls_[id] = PendingPull{delivery.from, 0, 0};
      pull->ids.push_back(id);
    }
    if (!pull->ids.empty()) {
      network_.Send(node_, delivery.from, pull);
    }
    return;
  }
  if (const auto* pull =
          dynamic_cast<const GossipPullMsg*>(delivery.message.get())) {
    if (byzantine_.active && byzantine_.suppress_gossip) return;
    auto msg = std::make_shared<GossipMsg>();
    // An id is served while its FIFO pair is unpopped.
    for (const crypto::Digest& id : pull->ids) {
      const TxEntry* entry = txs_.Find(id);
      if (entry == nullptr || entry->fifo_position < gossip_popped_) continue;
      const std::uint64_t offset = entry->fifo_position - gossip_popped_;
      if (offset < gossip_fifo_.size()) {
        msg->txs.push_back(gossip_fifo_[offset].second);
      }
    }
    if (!msg->txs.empty()) {
      if (obs::Tracer* t = simulation_.tracer()) {
        for (const auto& tx : msg->txs) {
          t->Instant(obs::EventKind::kGossipSend, simulation_.now(), node_,
                     tx->id.Prefix64(), delivery.from);
        }
      }
      network_.Send(node_, delivery.from, msg);
    }
    return;
  }
  if (const auto* summary =
          dynamic_cast<const SummaryMsg*>(delivery.message.get())) {
    if (timing_.antientropy_interval > 0 &&
        (summary->tx_count != committed_count_ ||
         summary->tx_xor != committed_xor_)) {
      auto req = std::make_shared<SyncRequestMsg>();
      req->have_ckpt = BestCheckpointDigest();
      network_.Send(node_, delivery.from, req);
    }
    return;
  }
  if (const auto* sync_req =
          dynamic_cast<const SyncRequestMsg*>(delivery.message.get())) {
    if (byzantine_.active && byzantine_.suppress_gossip) return;
    // With a quorum-attested checkpoint, the reply is snapshot + delta: the
    // covered prefix travels as one verified state merge and only the
    // transactions committed after the frontier go as full bodies
    // (`committed_txs_` loses the covered prefix at each promotion and each
    // install, so it *is* the delta). Without one, the full-set push. An
    // unpromoted seal never ships: it is 1-of-n trust every receiver
    // refuses.
    std::shared_ptr<const Checkpoint> ship;
    AttestationSet ship_set;
    if (byzantine_.active && byzantine_.forge_checkpoint &&
        sealed_ckpt_ != nullptr) {
      // The strongest forgery available: tampered content validly signed
      // under its own key, padded with fabricated peer attestations. The
      // quorum check at the installer must count exactly one valid vote.
      ship = MakeForgedCheckpoint(
          byzantine_.equivocate_checkpoint ? delivery.from : 0);
      ship_set.ckpt_digest = ship->digest;
      for (crypto::KeyId id : org_keys_) {
        ship_set.attestations.push_back(CheckpointAttestation{
            id, id == key_.id()
                    ? key_.Sign(kCheckpointAttestContext, ship->digest)
                    : crypto::Signature{}});
      }
    } else if (byzantine_.active && byzantine_.replay_stale_checkpoint &&
               stale_ckpt_ != nullptr) {
      // Stale replay: a validly attested but outdated snapshot. Installs
      // stay safe (CRDT merge is monotone) — the attack wastes bytes.
      ship = stale_ckpt_;
      ship_set = stale_set_;
    } else {
      ship = attested_ckpt_;
      ship_set = attested_set_;
      if (installed_ckpt_ != nullptr &&
          Outranks(*installed_ckpt_, ship.get())) {
        ship = installed_ckpt_;
        ship_set = installed_set_;
      }
    }
    if (ship != nullptr && ship->digest != sync_req->have_ckpt) {
      auto ckpt_msg = std::make_shared<CheckpointMsg>();
      ckpt_msg->ckpt = ship;
      ckpt_msg->attestations = std::move(ship_set);
      ++catchup_stats_.ckpt_sent;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Instant(obs::EventKind::kCkptSend, simulation_.now(), node_,
                   ship->digest.Prefix64(), delivery.from);
      }
      network_.Send(node_, delivery.from, ckpt_msg);
    }
    if (byzantine_.active && byzantine_.corrupt_delta) {
      return;  // snapshot shipped, delta withheld: the requester must heal
               // through other peers (anti-entropy keeps retrying)
    }
    if (!committed_txs_.empty()) {
      auto msg = std::make_shared<GossipMsg>();
      msg->txs = committed_txs_;
      catchup_stats_.sync_txs_sent += msg->txs.size();
      if (obs::Tracer* t = simulation_.tracer()) {
        for (const auto& tx : msg->txs) {
          t->Instant(obs::EventKind::kGossipSend, simulation_.now(), node_,
                     tx->id.Prefix64(), delivery.from);
        }
      }
      network_.Send(node_, delivery.from, msg);
    }
    return;
  }
  if (const auto* ckpt_msg =
          dynamic_cast<const CheckpointMsg*>(delivery.message.get())) {
    if (timing_.checkpoint.interval == 0 || ckpt_msg->ckpt == nullptr) {
      return;
    }
    const auto ckpt = ckpt_msg->ckpt;
    // Already holding it (or our own seal): nothing to merge.
    if ((sealed_ckpt_ && sealed_ckpt_->digest == ckpt->digest) ||
        (installed_ckpt_ && installed_ckpt_->digest == ckpt->digest)) {
      return;
    }
    auto evidence = std::make_shared<AttestationSet>(ckpt_msg->attestations);
    const sim::SimTime verify_service =
        cost::kCkptInstallBase +
        cost::kCkptInstallPerObject *
            static_cast<sim::SimTime>(ckpt->objects.size()) +
        cost::kCkptAttestationCheck *
            static_cast<sim::SimTime>(evidence->attestations.size());
    cpu_.Submit(verify_service, [this, ckpt, evidence] {
      if (!running_) return;
      // The install gate. A valid seal is not enough: the digest needs q
      // valid attestations from distinct organization keys, so a forgery
      // backed by at most f = n − q Byzantine votes can never get past here.
      if (!ckpt->Verify(pki_, org_keys_) ||
          evidence->ckpt_digest != ckpt->digest ||
          !evidence->HasQuorum(pki_, org_keys_, policy_.q)) {
        ++catchup_stats_.ckpt_rejected;
        if (obs::Tracer* t = simulation_.tracer()) {
          t->Instant(obs::EventKind::kCkptReject, simulation_.now(), node_,
                     ckpt->digest.Prefix64(), 1);
        }
        return;
      }
      const sim::SimTime merge_service =
          cost::kOrgCacheApplyBase +
          cost::kOrgCacheApplyPerOp *
              static_cast<sim::SimTime>(ckpt->objects.size());
      cache_lock_.Submit(merge_service, [this, ckpt, evidence] {
        if (!running_) return;
        InstallCheckpoint(ckpt, std::move(*evidence));
      });
    });
    return;
  }
  if (const auto* announce =
          dynamic_cast<const CheckpointAnnounceMsg*>(delivery.message.get())) {
    if (timing_.checkpoint.interval == 0 || announce->ckpt == nullptr) {
      return;
    }
    HandleCheckpointAnnounce(delivery.from, announce->ckpt);
    return;
  }
  if (const auto* attest_msg =
          dynamic_cast<const CheckpointAttestMsg*>(delivery.message.get())) {
    if (timing_.checkpoint.interval == 0) return;
    HandleCheckpointAttest(*attest_msg);
    return;
  }
}

void Organization::SendBusy(sim::NodeId to, const crypto::Digest& ref,
                            bool endorse_phase) {
  auto busy = std::make_shared<BusyMsg>();
  busy->ref = ref;
  busy->endorse_phase = endorse_phase;
  busy->retry_after = std::min(cpu_.Backlog(), kMaxRetryAfter);
  ++overload_stats_.busy_sent;
  network_.Send(node_, to, busy);
}

void Organization::HandleProposal(sim::NodeId from,
                                  std::shared_ptr<const ProposalMsg> msg) {
  if (byzantine_.active && rng_.NextBool(byzantine_.ignore_proposal_prob)) {
    return;  // Byzantine: silently drop
  }
  const sim::SimTime arrival = simulation_.now();
  const Proposal& proposal = msg->proposal;
  const sim::SimTime deadline = msg->deadline;

  // Estimate service before executing: base plus argument-proportional work.
  const sim::SimTime exec_service =
      proposal.read_only
          ? cost::kOrgRead
          : timing_.endorse_base +
                cost::kOrgEndorsePerFourArgs * proposal.args.size() / 4;

  if (timing_.overload.enabled) {
    if (deadline > 0 &&
        arrival + cpu_.NextStartDelay() + exec_service > deadline) {
      // By the time a core frees up and executes this, the client's
      // endorsement timer will have fired: shed instead of burning CPU on a
      // reply nobody is waiting for.
      ++overload_stats_.shed_deadline;
      return;
    }
    if (cpu_.Backlog() > timing_.overload.max_backlog_endorse) {
      ++overload_stats_.shed_endorse;
      SendBusy(from, proposal.Digest(), /*endorse_phase=*/true);
      return;
    }
  }

  // The 16-byte shared_ptr capture fits the closure's inline buffer and
  // borrows the delivered message — no Proposal deep copies. The sender
  // warms the proposal's digest cache before the send, so even a message
  // fanned out to several organizations is only ever read here.
  cpu_.Submit(exec_service,
              sim::TriviallyRelocatable{[this, from, msg, arrival] {
                ExecuteProposal(from, msg->proposal, arrival);
              }});
}

void Organization::ExecuteProposal(sim::NodeId from, const Proposal& proposal,
                                   sim::SimTime arrival) {
  if (!running_) return;
  auto reply = std::make_shared<EndorseReplyMsg>();
  reply->proposal_digest = proposal.Digest();

  const SmartContract* contract = contracts_.Find(proposal.contract);
  if (contract == nullptr) {
    reply->ok = false;
    reply->error = "unknown contract: " + proposal.contract;
    network_.Send(node_, from, reply);
    return;
  }
  Invocation in;
  in.client = proposal.client;
  in.clock = proposal.clock;
  in.args = proposal.args;
  LedgerReadContext state(ledger_);
  ContractResult result = contract->Invoke(state, proposal.function, in);
  if (!result.ok) {
    reply->ok = false;
    reply->error = result.error;
    network_.Send(node_, from, reply);
    return;
  }

  if (proposal.read_only) {
    // Reads go through the cache's lock as well (read-your-writes path).
    const sim::SimTime lock_service =
        cost::kOrgCacheReadBase +
        cost::kOrgCacheReadPerObject *
            std::max<std::uint32_t>(1, result.objects_read);
    auto value = std::make_shared<crdt::Value>(std::move(result.value));
    cache_lock_.Submit(lock_service, sim::TriviallyRelocatable{[this, from,
                                                               reply, value,
                                                               arrival] {
      reply->ok = true;
      reply->read_value = *value;
      phase_stats_.endorse_count++;
      phase_stats_.endorse_time_us += simulation_.now() - arrival;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kEndorseExec, arrival, simulation_.now(),
                node_, reply->proposal_digest.Prefix64());
      }
      network_.Send(node_, from, reply);
    }});
    return;
  }

  std::vector<crdt::Operation> ops = std::move(result.ops);
  if (byzantine_.active && rng_.NextBool(byzantine_.wrong_endorse_prob) &&
      !ops.empty()) {
    // Byzantine: execute the contract incorrectly — the write-set will not
    // match honest endorsements and the client cannot assemble a valid tx.
    if (ops[0].value.IsInt()) {
      ops[0].value = crdt::Value(ops[0].value.AsInt() + 987654321);
    } else {
      ops[0].value = crdt::Value(std::string("byzantine-garbage"));
    }
  }
  const crypto::Digest ws_digest = WriteSetDigest(ops);
  reply->ok = true;
  reply->ops = std::move(ops);
  reply->endorsement.org = key_.id();
  reply->endorsement.signature = key_.Sign(
      kEndorseContext, EndorsementMessage(reply->proposal_digest, ws_digest));
  phase_stats_.endorse_count++;
  phase_stats_.endorse_time_us += simulation_.now() - arrival;
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Span(obs::EventKind::kEndorseExec, arrival, simulation_.now(), node_,
            reply->proposal_digest.Prefix64());
  }
  network_.Send(node_, from, reply);
}

void Organization::HandleCommit(sim::NodeId from,
                                std::shared_ptr<const Transaction> tx,
                                bool from_gossip) {
  if (byzantine_.active && rng_.NextBool(byzantine_.ignore_commit_prob)) {
    return;
  }
  if (from_gossip) {
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kGossipRecv, simulation_.now(), node_,
                 tx->id.Prefix64(), from);
    }
  }
  // The transaction body arrived, so any pull for it is satisfied (even if
  // this copy ends up shed below, a later advert can restart the pull).
  pending_pulls_.erase(tx->id);
  if (timing_.overload.enabled) {
    // Commit validation has the highest admission priority — the cluster
    // already paid endorsement CPU for this transaction — but it is still
    // bounded. Gossip copies are shed at the (much lower) gossip ceiling.
    const sim::SimTime backlog = cpu_.Backlog();
    if (from_gossip) {
      if (backlog > timing_.overload.max_backlog_gossip) {
        ++overload_stats_.shed_gossip;
        return;
      }
    } else if (backlog > timing_.overload.max_backlog_commit) {
      ++overload_stats_.shed_commit;
      SendBusy(from, tx->id, /*endorse_phase=*/false);
      return;
    }
  }
  const sim::SimTime arrival = simulation_.now();
  // Admission is traced once per id: re-sent or gossiped copies of an id
  // already committed or already admitted record nothing (the dedup stage
  // answers them from the table). The admission flag serves only this trace
  // event, so untraced runs create no entry here.
  if (obs::Tracer* t = simulation_.tracer()) {
    TxEntry& entry = txs_.FindOrInsert(tx->id).first;
    if (!entry.committed && !entry.admitted) {
      entry.admitted = true;
      t->Instant(obs::EventKind::kPipeAdmit, simulation_.now(), node_,
                 tx->id.Prefix64(), 0);
    }
  }

  // TriviallyRelocatable: scalar + shared_ptr captures relocate by raw byte
  // copy inside the event queue's slab (see sim::SmallFn).
  cpu_.Submit(cost::kOrgDedupCheck, sim::TriviallyRelocatable{[this, from, tx,
                                                              from_gossip,
                                                              arrival] {
    if (!running_) return;
    TxEntry& entry = txs_.FindOrInsert(tx->id).first;
    // Already committed: do not commit again; resend the receipt (paper §4).
    if (entry.committed) {
      // A checkpoint install covered the id between admission and this
      // dedup check — the admission will never reach FinishCommit.
      entry.admitted = false;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kPipeDedup,
                simulation_.now() - cost::kOrgDedupCheck, simulation_.now(),
                node_, tx->id.Prefix64(), 1);
      }
      if (!from_gossip) SendReceipt(from, tx->id, entry);
      return;
    }
    // Already being processed: just remember who else wants the receipt.
    if (entry.in_flight) {
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kPipeDedup,
                simulation_.now() - cost::kOrgDedupCheck, simulation_.now(),
                node_, tx->id.Prefix64(), 2);
      }
      if (!from_gossip) waiters_[tx->id].push_back(from);
      return;
    }
    entry.in_flight = true;
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Span(obs::EventKind::kPipeDedup,
              simulation_.now() - cost::kOrgDedupCheck, simulation_.now(),
              node_, tx->id.Prefix64(), 0);
    }

    const sim::SimTime validate_service =
        timing_.commit_base +
        cost::kOrgVerifySig *
            static_cast<sim::SimTime>(tx->endorsements.size() + 1);
    cpu_.Submit(validate_service,
                sim::TriviallyRelocatable{[this, from, tx, from_gossip,
                                          arrival, validate_service] {
      if (!running_) return;
      // The simulated validate_service above is charged regardless; the
      // verdict cached on the shared object only skips the host-side
      // hashing once another organization has validated it.
      const TxVerdict verdict = tx->Verdict(pki_, org_keys_, policy_);
      if (obs::Tracer* t = simulation_.tracer()) {
        // The span covers the charged service slice (the queue wait ahead of
        // it belongs to the dedup/admission stage, not validation).
        t->Span(obs::EventKind::kValidate,
                simulation_.now() - validate_service, simulation_.now(),
                node_, tx->id.Prefix64(), verdict == TxVerdict::kValid);
      }
      if (verdict == TxVerdict::kValid) {
        const sim::SimTime apply_service =
            cost::kOrgCacheApplyBase +
            cost::kOrgCacheApplyPerOp *
                static_cast<sim::SimTime>(tx->ops.size());
        cache_lock_.Submit(
            apply_service,
            sim::TriviallyRelocatable{[this, from, tx, from_gossip, arrival,
                                       apply_service] {
              if (!running_) return;
              if (obs::Tracer* t = simulation_.tracer()) {
                // aux tags the touched object (32-bit FNV-1a of the first
                // op's object id, 0 for op-less txs) so the report's
                // convergence heat table can pivot lag by org x object.
                // Tracer-gated: the untraced hot path never hashes.
                std::uint64_t object_tag = 0;
                if (!tx->ops.empty()) {
                  std::uint32_t h = 2166136261u;
                  for (const char c : tx->ops.front().object_id) {
                    h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
                  }
                  object_tag = h;
                }
                t->Span(obs::EventKind::kCrdtApply,
                        simulation_.now() - apply_service, simulation_.now(),
                        node_, tx->id.Prefix64(), object_tag);
              }
              FinishCommit(from, tx, from_gossip, TxVerdict::kValid, arrival);
            }});
      } else {
        FinishCommit(from, tx, from_gossip, verdict, arrival);
      }
    }});
  }});
}

void Organization::FinishCommit(sim::NodeId from,
                                std::shared_ptr<const Transaction> tx,
                                bool from_gossip, TxVerdict verdict,
                                sim::SimTime arrival) {
  TxEntry& entry = txs_.FindOrInsert(tx->id).first;
  entry.admitted = false;
  entry.in_flight = false;
  // A checkpoint install can cover a transaction while it is in the
  // validate/commit pipeline; committing it again would double-append the
  // block and double-count it. The receipts then carry the adopted record.
  const bool fresh = !entry.committed;
  if (fresh) {
    const bool valid = verdict == TxVerdict::kValid;
    // Both ternary branches are lvalues, so tx->ops is never copied.
    static const std::vector<crdt::Operation> kNoOps;
    const ledger::Block& block =
        ledger_.Commit(tx->id, valid, valid ? tx->ops : kNoOps);
    entry.committed = true;
    entry.valid = valid;
    entry.block_hash = block.hash;
    ++committed_ids_;
    if (!valid) ++rejected_;

    phase_stats_.commit_count++;
    phase_stats_.commit_time_us += simulation_.now() - arrival;

    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kLedgerAppend, simulation_.now(), node_,
                 tx->id.Prefix64(), valid);
      if (valid) {
        t->CommitApplied(simulation_.now(), node_, tx->id.Prefix64());
      }
    }
  }

  if (!from_gossip) SendReceipt(from, tx->id, entry);
  if (const auto it = waiters_.find(tx->id); it != waiters_.end()) {
    for (sim::NodeId waiter : it->second) SendReceipt(waiter, tx->id, entry);
    waiters_.erase(it);
  }
  if (!fresh) return;

  if (entry.valid) {
    entry.fifo_position = gossip_popped_ + gossip_fifo_.size();
    gossip_fifo_.emplace_back(gossip_tick_, tx);
    if (timing_.antientropy_interval > 0) {
      committed_txs_.push_back(tx);
      ++committed_count_;
      committed_xor_ ^= tx->id.Prefix64();
      // Persist the body so a restart can keep serving syncs for it.
      ledger_.PutTransactionBody(tx->id, tx->EncodedBody());
    }
  }
  if (commit_observer_) commit_observer_(*tx, verdict);
}

void Organization::SendReceipt(sim::NodeId to, const crypto::Digest& id,
                               const TxEntry& entry) {
  auto reply = std::make_shared<CommitReplyMsg>();
  reply->receipt = Receipt::Make(id, entry.valid, entry.block_hash, key_);
  network_.Send(node_, to, reply);
}

void Organization::GossipTick() {
  if (!running_) return;  // crashed: let the timer chain die
  const bool suppressed = byzantine_.active && byzantine_.suppress_gossip;
  const std::uint64_t rounds = timing_.gossip_rounds;
  // The FIFO is in commit-tick order, so the ids still inside their advert
  // window are its tail. They age out whether or not they were actually
  // advertised (a Byzantine organization silently withholds forwarding).
  const auto advertised = std::partition_point(
      gossip_fifo_.begin(), gossip_fifo_.end(), [&](const auto& committed) {
        return committed.first + rounds <= gossip_tick_;
      });
  if (advertised != gossip_fifo_.end() && !peers_.empty() && !suppressed) {
    auto msg = std::make_shared<GossipAdvertMsg>();
    msg->ids.reserve(gossip_fifo_.end() - advertised);
    for (auto it = advertised; it != gossip_fifo_.end(); ++it) {
      msg->ids.push_back(it->second->id);
    }
    const std::uint32_t fanout = std::min<std::uint32_t>(
        timing_.gossip_fanout, static_cast<std::uint32_t>(peers_.size()));
    for (std::size_t idx : rng_.SampleDistinct(peers_.size(), fanout)) {
      network_.Send(node_, peers_[idx], msg);
    }
  }
  // Stop serving pulls one round-trip of slack after the last advert.
  ++gossip_tick_;
  while (!gossip_fifo_.empty() &&
         gossip_fifo_.front().first + rounds + 4 <= gossip_tick_) {
    gossip_fifo_.pop_front();
    ++gossip_popped_;
  }
  // Pending-pull repair: a pull (or its reply) that got dropped leaves the
  // id waiting here; after kPullRetryTicks quiet ticks re-ask the
  // advertiser, then expire so a fresh advert can restart the cycle.
  std::unordered_map<sim::NodeId, std::shared_ptr<GossipPullMsg>> retries;
  for (auto it = pending_pulls_.begin(); it != pending_pulls_.end();) {
    PendingPull& pending = it->second;
    if (++pending.ticks_waiting < kPullRetryTicks) {
      ++it;
      continue;
    }
    if (pending.retries >= kPullRetryLimit) {
      it = pending_pulls_.erase(it);
      continue;
    }
    pending.ticks_waiting = 0;
    ++pending.retries;
    auto& msg = retries[pending.advertiser];
    if (!msg) msg = std::make_shared<GossipPullMsg>();
    msg->ids.push_back(it->first);
    ++it;
  }
  for (auto& [advertiser, msg] : retries) {
    network_.Send(node_, advertiser, msg);
  }
  simulation_.Schedule(timing_.gossip_interval, [this] { GossipTick(); });
}

void Organization::AntiEntropyTick() {
  if (!running_) return;  // crashed: let the timer chain die
  if (!peers_.empty() && !(byzantine_.active && byzantine_.suppress_gossip)) {
    auto msg = std::make_shared<SummaryMsg>();
    msg->tx_count = committed_count_;
    msg->tx_xor = committed_xor_;
    const std::size_t peer = rng_.NextBelow(peers_.size());
    network_.Send(node_, peers_[peer], msg);
  }
  simulation_.Schedule(timing_.antientropy_interval,
                       [this] { AntiEntropyTick(); });
}

void Organization::CheckpointTick() {
  if (!running_) return;  // crashed: let the timer chain die
  // Re-announce an unpromoted seal: announces or attestation replies lost
  // to the network (or a quorum unreachable across a partition) are retried
  // every tick until the quorum forms or a newer seal supersedes it.
  if (sealed_ckpt_ != nullptr && !seal_in_flight_ &&
      (attested_ckpt_ == nullptr ||
       attested_ckpt_->digest != sealed_ckpt_->digest)) {
    AnnounceCheckpoint();
  }
  const bool worthwhile =
      committed_count_ - commits_at_last_seal_ >=
      timing_.checkpoint.min_new_commits;
  if (worthwhile && !seal_in_flight_) {
    seal_in_flight_ = true;
    // Sealing reads the whole cache, so it runs behind the cache lock like
    // any other state access; the service charge models the snapshot encode
    // and signature.
    const sim::SimTime service =
        cost::kCkptSealBase +
        cost::kCkptSealPerTx *
            static_cast<sim::SimTime>(committed_ids_);
    cache_lock_.Submit(service, [this] {
      if (!running_) return;
      seal_in_flight_ = false;
      SealCheckpoint();
    });
  }
  simulation_.Schedule(timing_.checkpoint.interval, [this] {
    CheckpointTick();
  });
}

void Organization::SealCheckpoint() {
  auto ckpt = std::make_shared<Checkpoint>();
  ckpt->seq = ++ckpt_seq_;
  ckpt->origin = key_.id();
  ckpt->chain_height = ledger_.log().total_appended();
  ckpt->chain_head = ledger_.log().LastHash();
  ckpt->valid_count = committed_count_;
  ckpt->valid_xor = committed_xor_;
  ckpt->covered.reserve(committed_ids_);
  txs_.ForEach([&ckpt](const auto& entry) {
    if (entry.value.committed) {
      ckpt->covered.push_back(
          Checkpoint::CoveredTx{entry.key, entry.value.valid});
    }
  });
  // The table is in arrival order: sort so the digest is canonical.
  std::sort(ckpt->covered.begin(), ckpt->covered.end(),
            [](const Checkpoint::CoveredTx& a, const Checkpoint::CoveredTx& b) {
              return a.id.bytes < b.id.bytes;
            });
  ckpt->objects = ledger_.cache().SnapshotStates();
  ckpt->Seal(key_);

  PutCheckpoint(ledger_, "sealed", *ckpt, nullptr);
  sealed_ckpt_ = ckpt;
  commits_at_last_seal_ = committed_count_;
  ++catchup_stats_.ckpt_sealed;

  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptSeal, simulation_.now(), node_,
               ckpt->digest.Prefix64(), ckpt->covered.size());
  }

  // Delta trimming and pruning wait for the quorum (see
  // PromoteAttestedCheckpoint): until then sync replies must keep the full
  // history available, because peers reject unattested snapshots.
  seal_attest_.clear();
  seal_attest_.emplace(key_.id(),
                       key_.Sign(kCheckpointAttestContext, ckpt->digest));
  if (seal_attest_.size() >= policy_.q) {
    PromoteAttestedCheckpoint();  // degenerate q = 1: self-quorum
  } else {
    AnnounceCheckpoint();
  }
}

void Organization::PruneBehind(const Checkpoint& ckpt) {
  std::vector<crypto::Digest> covered_ids;
  covered_ids.reserve(ckpt.covered.size());
  for (const auto& tx : ckpt.covered) covered_ids.push_back(tx.id);
  const std::size_t pruned = ledger_.PruneBehindCheckpoint(
      ckpt.chain_height, ckpt.chain_head, covered_ids);
  catchup_stats_.pruned_records += pruned;
  ledger_.store().CompactRange();
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptPrune, simulation_.now(), node_,
               ckpt.digest.Prefix64(), pruned);
  }
}

void Organization::DropCoveredBodies(const Checkpoint& ckpt) {
  if (committed_txs_.empty()) return;
  std::unordered_set<crypto::Digest, crypto::DigestHash> covered;
  covered.reserve(ckpt.covered.size());
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) covered.insert(tx.id);
  std::erase_if(committed_txs_, [&covered](const auto& tx) {
    return covered.contains(tx->id);
  });
}

std::size_t Organization::AdoptCheckpointCoverage(const Checkpoint& ckpt) {
  std::size_t adopted_valid = 0;
  for (const Checkpoint::CoveredTx& covered : ckpt.covered) {
    TxEntry& entry = txs_.FindOrInsert(covered.id).first;
    if (entry.committed) continue;
    entry.committed = true;
    entry.valid = covered.valid;
    ++committed_ids_;
    ++catchup_stats_.ckpt_txs_covered;
    pending_pulls_.erase(covered.id);
    if (covered.valid) {
      ++adopted_valid;
      ++committed_count_;
      committed_xor_ ^= covered.id.Prefix64();
    }
  }
  return adopted_valid;
}

void Organization::InstallCheckpoint(std::shared_ptr<const Checkpoint> ckpt,
                                     AttestationSet attestations) {
  for (const auto& [object_id, state] : ckpt->objects) {
    ledger_.MergeObjectState(object_id, BytesView(state));
  }
  ckpt_external_valid_ += AdoptCheckpointCoverage(*ckpt);
  ++catchup_stats_.ckpt_installed;
  // A quorum-attested install gives the covered prefix snapshot transport,
  // exactly like a promotion of our own seal: drop those bodies from the
  // delta buffer so our sync replies stay O(delta). Without this, an org
  // whose own seals never reach quorum would keep serving the full history
  // as bodies — O(history) traffic the checkpoint exists to avoid.
  DropCoveredBodies(*ckpt);
  // Pin the first quorum-backed checkpoint seen for the replay-stale
  // adversary (a Byzantine serving peer replays it forever).
  if (stale_ckpt_ == nullptr) {
    stale_ckpt_ = ckpt;
    stale_set_ = attestations;
  }
  // Keep the better of the current and new external checkpoints persisted,
  // with a deterministic tie-break, so a restart re-installs the best
  // coverage seen so far.
  if (Outranks(*ckpt, installed_ckpt_.get())) {
    installed_ckpt_ = ckpt;
    installed_set_ = std::move(attestations);
    PutCheckpoint(ledger_, "installed", *ckpt, &installed_set_);
  }
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptInstall, simulation_.now(), node_,
               ckpt->digest.Prefix64(), ckpt->origin);
  }
}

void Organization::AnnounceCheckpoint() {
  if (sealed_ckpt_ == nullptr || peers_.empty()) return;
  ++catchup_stats_.ckpt_announced;
  const bool forge =
      byzantine_.active &&
      (byzantine_.forge_checkpoint || byzantine_.equivocate_checkpoint);
  std::shared_ptr<const Checkpoint> shared_forgery;
  if (forge && !byzantine_.equivocate_checkpoint) {
    shared_forgery = MakeForgedCheckpoint(0);
  }
  for (sim::NodeId peer : peers_) {
    auto msg = std::make_shared<CheckpointAnnounceMsg>();
    if (forge) {
      // Equivocation derives a *different* forged variant per recipient;
      // plain forging shows everyone the same tampered snapshot.
      msg->ckpt = byzantine_.equivocate_checkpoint ? MakeForgedCheckpoint(peer)
                                                   : shared_forgery;
    } else {
      msg->ckpt = sealed_ckpt_;
    }
    network_.Send(node_, peer, msg);
  }
}

void Organization::HandleCheckpointAnnounce(
    sim::NodeId from, std::shared_ptr<const Checkpoint> ckpt) {
  if (byzantine_.active && byzantine_.withhold_attest) return;
  if (ckpt->origin == key_.id()) return;  // own digests self-attest at seal
  const sim::SimTime service =
      cost::kCkptAttestVerifyBase +
      cost::kCkptAttestVerifyPerObject *
          static_cast<sim::SimTime>(ckpt->objects.size());
  cpu_.Submit(service, [this, from, ckpt] {
    if (!running_) return;
    const bool blind = byzantine_.active && byzantine_.dishonest_attest;
    if (!blind && !CanAttest(*ckpt)) {
      ++catchup_stats_.ckpt_refused;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Instant(obs::EventKind::kCkptReject, simulation_.now(), node_,
                   ckpt->digest.Prefix64(), 2);
      }
      return;
    }
    auto reply = std::make_shared<CheckpointAttestMsg>();
    reply->ckpt_digest = ckpt->digest;
    reply->attestation.attester = key_.id();
    reply->attestation.signature =
        key_.Sign(kCheckpointAttestContext, ckpt->digest);
    ++catchup_stats_.ckpt_attest_sent;
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kCkptAttest, simulation_.now(), node_,
                 ckpt->digest.Prefix64(), ckpt->origin);
    }
    network_.Send(node_, from, reply);
  });
}

void Organization::HandleCheckpointAttest(const CheckpointAttestMsg& msg) {
  // Only attestations over the *current* seal matter; stragglers for an
  // already-promoted or superseded digest are dropped unverified.
  if (sealed_ckpt_ == nullptr || msg.ckpt_digest != sealed_ckpt_->digest) {
    return;
  }
  if (attested_ckpt_ != nullptr &&
      attested_ckpt_->digest == sealed_ckpt_->digest) {
    return;  // quorum already formed
  }
  const CheckpointAttestation attestation = msg.attestation;
  const crypto::Digest digest = msg.ckpt_digest;
  cpu_.Submit(cost::kCkptAttestationCheck, [this, attestation, digest] {
    if (!running_) return;
    if (sealed_ckpt_ == nullptr || sealed_ckpt_->digest != digest) return;
    if (attested_ckpt_ != nullptr && attested_ckpt_->digest == digest) return;
    // Distinct organization keys only: duplicates, outsiders and bad
    // signatures never advance the quorum (a dishonest attester is worth at
    // most its own single vote).
    if (!org_keys_.contains(attestation.attester)) return;
    if (seal_attest_.contains(attestation.attester)) return;
    if (!attestation.Verify(pki_, digest)) return;
    seal_attest_.emplace(attestation.attester, attestation.signature);
    ++catchup_stats_.ckpt_attest_received;
    if (seal_attest_.size() >= policy_.q) PromoteAttestedCheckpoint();
  });
}

bool Organization::CanAttest(const Checkpoint& ckpt) const {
  // The seal itself must verify (known origin, digest, signature).
  if (!ckpt.Verify(pki_, org_keys_)) return false;
  // The claimed accumulators must be exactly what the covered list implies —
  // an inflated valid_count cannot hide behind a valid self-signature.
  std::uint64_t count = 0;
  std::uint64_t xr = 0;
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    if (tx.valid) {
      ++count;
      xr ^= tx.id.Prefix64();
    }
  }
  if (count != ckpt.valid_count || xr != ckpt.valid_xor) return false;
  // First-hand coverage: every covered transaction must be committed here
  // with the same verdict. Anything we never saw — or judged differently —
  // is something we cannot vouch for, so we refuse rather than endorse an
  // unverifiable claim.
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    const TxEntry* entry = txs_.Find(tx.id);
    if (entry == nullptr || !entry->committed || entry->valid != tx.valid) {
      return false;
    }
  }
  // State dominance: merging the checkpoint's copy of each object into ours
  // must change nothing, i.e. the snapshot claims no operation we have not
  // already absorbed ourselves (⊑ in the join-semilattice; our state may be
  // strictly ahead). A single tampered operation breaks this.
  for (const auto& [object_id, state] : ckpt.objects) {
    const Bytes ours = ledger_.cache().EncodeObjectState(object_id);
    if (ours.empty()) return false;
    auto mine = crdt::CrdtObject::DecodeState(object_id, BytesView(ours));
    auto theirs = crdt::CrdtObject::DecodeState(object_id, BytesView(state));
    if (!mine || !theirs) return false;
    mine->MergeState(*theirs);
    if (mine->EncodeState() != ours) return false;
  }
  return true;
}

void Organization::PromoteAttestedCheckpoint() {
  attested_ckpt_ = sealed_ckpt_;
  attested_set_ = AttestationSet{};
  attested_set_.ckpt_digest = attested_ckpt_->digest;
  for (const auto& [attester, signature] : seal_attest_) {
    attested_set_.attestations.push_back(
        CheckpointAttestation{attester, signature});
  }
  ++catchup_stats_.ckpt_attested;
  if (stale_ckpt_ == nullptr) {
    stale_ckpt_ = attested_ckpt_;
    stale_set_ = attested_set_;
  }
  PutCheckpoint(ledger_, "attested", *attested_ckpt_, &attested_set_);

  // The covered prefix now has quorum-backed snapshot transport: drop it
  // from the delta buffer and reclaim the storage behind the frontier.
  DropCoveredBodies(*attested_ckpt_);
  PruneBehind(*attested_ckpt_);
}

std::shared_ptr<const Checkpoint> Organization::MakeForgedCheckpoint(
    std::uint64_t nonce) const {
  // The strongest forgery a Byzantine origin can construct: arbitrary
  // content under a *valid* self-signature (it holds only its own key, so
  // it cannot sign as anyone else — the PKI's unforgeability assumption).
  auto forged = std::make_shared<Checkpoint>(*sealed_ckpt_);
  forged->valid_count += 1000 + nonce;
  forged->valid_xor ^= 0xdeadbeefULL + nonce;
  if (!forged->covered.empty()) {
    forged->covered[0].valid = !forged->covered[0].valid;
  }
  if (!forged->objects.empty() && !forged->objects[0].second.empty()) {
    forged->objects[0].second[0] ^= 0x5a;
  }
  forged->Seal(key_);
  return forged;
}

crypto::Digest Organization::BestCheckpointDigest() const {
  // Prefer the checkpoint covering more valid commits (digest tie-break so
  // the choice is deterministic). Zero digest = nothing held yet.
  const Checkpoint* best = nullptr;
  for (const auto& candidate : {sealed_ckpt_, installed_ckpt_}) {
    if (candidate != nullptr && Outranks(*candidate, best)) {
      best = candidate.get();
    }
  }
  return best == nullptr ? crypto::Digest{} : best->digest;
}

}  // namespace orderless::core
