// An OrderlessChain organization: hosts smart contracts, endorses proposals,
// validates and commits transactions, and gossips committed transactions to
// its peers (paper §4).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/contract.h"
#include "core/messages.h"
#include "core/policy.h"
#include "ledger/ledger.h"
#include "sim/network.h"
#include "sim/processor.h"

namespace orderless::core {

class VerdictTable;

/// Bounded admission + priority load shedding. Past saturation an unbounded
/// organization queues work without limit and every latency collapses (the
/// paper's Fig. 6/7 knees); with admission control it degrades gracefully:
/// low-value work is shed first and clients are told to back off.
///
/// Priorities are expressed as per-message-class backlog ceilings on the
/// shared CPU queue: commit validation (finishing work the cluster already
/// paid for) is admitted until the largest backlog, endorsement next, and
/// gossip-driven work is shed first. Shed endorsements and client commits
/// are answered with an explicit `BusyMsg` carrying a retry-after hint;
/// gossip work is dropped silently (re-adverts and anti-entropy repair it).
struct OverloadConfig {
  bool enabled = false;  // off = the unbounded seed behaviour
  /// Admission ceilings: new work of a class is shed once the CPU backlog
  /// (queueing delay ahead of it) exceeds the class's bound.
  sim::SimTime max_backlog_gossip = sim::Ms(250);
  sim::SimTime max_backlog_endorse = sim::Ms(600);
  sim::SimTime max_backlog_commit = sim::Sec(2);
  /// Deadline-aware shedding: proposals carry the client's endorsement
  /// deadline; work whose deadline already passed when a core frees up is
  /// dropped instead of burning CPU on a reply nobody is waiting for.
  bool shed_past_deadline = true;
  /// Retry-after hints in Busy replies are the current backlog clamped here.
  sim::SimTime max_retry_after = sim::Sec(2);
};

/// Periodic signed-checkpoint sealing + snapshot-transfer catch-up (see
/// core/checkpoint.h and DESIGN.md §12). Requires anti-entropy: catch-up
/// rides the Summary → SyncRequest exchange, which now answers with
/// checkpoint + delta instead of the full committed set. Every organization
/// in one network must agree on `enabled` (a delta-only sync reply assumes
/// the requester can install the accompanying checkpoint).
struct CheckpointConfig {
  bool enabled = false;
  /// Quorum attestation (q-of-n install trust; see checkpoint.h and
  /// DESIGN.md §13). When set, a sealed checkpoint is broadcast to every
  /// peer; peers that can reproduce its claims against their own state
  /// return a signed attestation, and only a checkpoint carrying q valid
  /// attestations from distinct organization keys is ever shipped in sync
  /// replies or installed. Pruning is deferred from seal to promotion so
  /// full-history sync stays available while a seal lacks its quorum. Off =
  /// the PR 6 single-signer behaviour, bit-identical to it.
  bool attest = false;
  /// Seal period. Like gossip, each organization ticks with a random phase
  /// offset drawn at Start().
  sim::SimTime interval = sim::Sec(2);
  /// Skip the seal when fewer new commits accumulated since the last one
  /// (a checkpoint that moves the frontier by almost nothing isn't worth
  /// its snapshot bytes).
  std::uint64_t min_new_commits = 4;
  /// Reclaim storage behind the sealed frontier: drop commit records, op
  /// rows and covered bodies, prune the in-memory chain segment (the
  /// boundary digest is retained), and compact the store.
  bool prune = true;
  /// Service-time model for sealing (snapshot encode + sign) and installing
  /// (verify + merge), charged on the CPU / cache-lock queues.
  sim::SimTime seal_base = sim::Us(200);
  sim::SimTime seal_per_tx = sim::Us(2);
  sim::SimTime install_base = sim::Us(120);
  sim::SimTime install_per_object = sim::Us(25);
  /// Attestation service times: verifying an announced checkpoint against
  /// local state (seal check + per-object dominance merge) and checking one
  /// incoming attestation signature on the sealer side.
  sim::SimTime attest_verify_base = sim::Us(150);
  sim::SimTime attest_verify_per_object = sim::Us(20);
  sim::SimTime attest_accept = sim::Us(20);
};

/// Checkpoint / catch-up counters. The chaos O(delta) heal assertions key on
/// these: a healed or restarted organization must converge with re-pulled
/// bodies and replayed records proportional to the missed *delta*, with the
/// bulk of history arriving as checkpoint coverage.
struct CatchupStats {
  std::uint64_t ckpt_sealed = 0;      // checkpoints this org sealed
  std::uint64_t ckpt_sent = 0;        // checkpoint messages pushed to peers
  std::uint64_t ckpt_installed = 0;   // external checkpoints merged in
  std::uint64_t ckpt_rejected = 0;    // failed digest/signature verification
  std::uint64_t ckpt_txs_covered = 0; // commit-index entries adopted from
                                      // checkpoints instead of re-pulled
  std::uint64_t sync_txs_sent = 0;    // bodies pushed in anti-entropy syncs
  std::uint64_t sync_txs_received = 0;// bodies received via gossip/sync
  std::uint64_t pruned_records = 0;   // store rows reclaimed behind frontiers
  std::uint64_t recovered_records = 0;// commit records replayed at restart
  // ---- Quorum attestation (all zero when CheckpointConfig::attest off) ----
  std::uint64_t ckpt_announced = 0;       // announce broadcasts sent
  std::uint64_t ckpt_attest_sent = 0;     // attestations signed for peers
  std::uint64_t ckpt_attest_received = 0; // valid attestations accepted
  std::uint64_t ckpt_attested = 0;        // own seals promoted to quorum
  std::uint64_t ckpt_refused = 0;         // announces refused (claims did not
                                          // reproduce against local state)
};

/// CPU / storage cost model, calibrated so a 4-vCPU organization saturates
/// where the paper's does (Fig. 6/7 knees).
struct OrgTimingConfig {
  unsigned cores = 4;
  sim::SimTime endorse_base = sim::Us(180);
  sim::SimTime endorse_per_op = sim::Us(30);
  sim::SimTime read_base = sim::Us(60);
  sim::SimTime read_per_object = sim::Us(30);
  sim::SimTime commit_base = sim::Us(60);
  sim::SimTime commit_per_sig = sim::Us(160);   // endorsement verification
  sim::SimTime dedup_check = sim::Us(10);
  // The CRDT cache applies modifications under one lock (paper §9's noted
  // bottleneck) — modeled as a single-server queue.
  sim::SimTime cache_apply_base = sim::Us(20);
  sim::SimTime cache_apply_per_op = sim::Us(25);
  sim::SimTime cache_read_base = sim::Us(10);
  sim::SimTime cache_read_per_object = sim::Us(10);
  sim::SimTime gossip_interval = sim::Sec(1);
  std::uint32_t gossip_fanout = 1;   // "Gossip Ratio" control variable
  std::uint32_t gossip_rounds = 3;   // ticks each tx keeps being pushed
  /// Anti-entropy reconciliation period (0 disables). Repairs divergence
  /// push gossip missed, e.g. after partitions heal. Requires retaining the
  /// committed transaction set, so large benchmarks leave it off.
  sim::SimTime antientropy_interval = 0;
  /// How many gossip ticks an unanswered pull waits before it is re-sent to
  /// the advertiser (a dropped PullRequest/PullReply would otherwise orphan
  /// the id until anti-entropy). 0 keeps pull loss unrepaired.
  std::uint32_t pull_retry_ticks = 2;
  /// Re-sends per orphaned pull before giving up on the advertiser.
  std::uint32_t pull_retry_limit = 3;

  /// Overload protection (bounded admission + priority shedding).
  OverloadConfig overload;

  /// Signed checkpoints + O(delta) catch-up (off = the pre-checkpoint
  /// behaviour, bit-identical to it).
  CheckpointConfig checkpoint;

  /// Ledger retention knobs (benchmarks use lightweight settings).
  ledger::LedgerOptions ledger_options;
};

/// How a Byzantine organization misbehaves while `active` (paper §9 Fig. 8:
/// randomly not responding, endorsing incorrectly, not forwarding gossip),
/// plus the checkpoint-layer attacks quorum attestation defends against.
struct ByzantineOrgBehavior {
  bool active = false;
  double ignore_proposal_prob = 0.5;
  double wrong_endorse_prob = 0.5;   // of the proposals it does answer
  double ignore_commit_prob = 0.5;
  bool suppress_gossip = true;

  // ---- Checkpoint-layer attacks (need CheckpointConfig::attest to matter;
  // without attestation a forged seal is already caught by Verify, and with
  // it a forgery can never gather q honest attestations) ----
  /// Announce and ship a self-signed checkpoint with forged content
  /// (inflated counters, flipped verdicts, tampered object state) instead of
  /// the honestly sealed one, padded with fabricated peer attestations.
  bool forge_checkpoint = false;
  /// Equivocate: derive a *different* forged variant per recipient.
  bool equivocate_checkpoint = false;
  /// Attest every announced digest without verifying anything.
  bool dishonest_attest = false;
  /// Never answer announces (starves quorums of this org's vote).
  bool withhold_attest = false;
  /// Serve sync requests with the first checkpoint ever promoted instead of
  /// the best one held (stale-but-validly-attested replay).
  bool replay_stale_checkpoint = false;
  /// Ship the snapshot in sync replies but withhold the delta bodies that
  /// should follow it.
  bool corrupt_delta = false;
};

/// Phase-time accumulators backing Table 3, plus overload-shedding counters
/// (harness::Metrics aggregates these across organizations).
struct OrgPhaseStats {
  std::uint64_t endorse_count = 0;
  std::uint64_t endorse_time_us = 0;   // proposal arrival → endorsement sent
  std::uint64_t commit_count = 0;
  std::uint64_t commit_time_us = 0;    // commit arrival → committed
  std::uint64_t shed_endorse = 0;      // proposals shed at admission
  std::uint64_t shed_commit = 0;       // client commits shed at admission
  std::uint64_t shed_gossip = 0;       // gossip work declined under load
  std::uint64_t shed_deadline = 0;     // endorsements dropped past deadline
  std::uint64_t busy_sent = 0;         // BusyMsg backpressure replies
  double AvgEndorseMs() const {
    return endorse_count == 0 ? 0.0
                              : endorse_time_us / 1000.0 / endorse_count;
  }
  double AvgCommitMs() const {
    return commit_count == 0 ? 0.0 : commit_time_us / 1000.0 / commit_count;
  }
};

class Organization {
 public:
  /// `verdicts` is the network-wide validation table every organization of
  /// the network shares (see validation_cache.h); it must outlive the
  /// organization. `store` is the ledger's backing KV store; pass nullptr
  /// for a private in-memory store. A host that wants to crash and later
  /// rebuild the organization keeps the shared_ptr and hands it to the
  /// replacement.
  Organization(sim::Simulation& simulation, sim::Network& network,
               sim::NodeId node, crypto::PrivateKey key,
               const crypto::Pki& pki, const ContractRegistry& contracts,
               EndorsementPolicy policy, OrgTimingConfig timing,
               VerdictTable& verdicts, Rng rng,
               std::shared_ptr<ledger::KvStore> store = nullptr);

  /// Registers the network handler and starts the gossip timer.
  void Start();

  /// Simulated crash: unregisters from the network and halts the endorse /
  /// commit / gossip pipelines (queued simulator events become no-ops). The
  /// object must stay alive until the simulation drains; a replacement built
  /// on the same store takes over after RecoverFromLedger() + Start().
  void Stop();
  bool running() const { return running_; }

  /// Restart path: rebuilds the hash chain, commit counters, CRDT cache and
  /// the commit/dedup index from the ledger's persistent store. Call before
  /// Start() on an organization constructed over a pre-existing store.
  /// Returns false when recovered blocks fail the hash-chain cross-check.
  bool RecoverFromLedger();

  /// Observes every commit decision this organization makes (chaos invariant
  /// checking); invoked after the block is appended.
  using CommitObserver =
      std::function<void(const Transaction& tx, TxVerdict verdict)>;
  void SetCommitObserver(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  /// Supplies the full organization directory (node ids + key ids).
  void SetPeers(std::vector<sim::NodeId> peer_nodes,
                std::set<crypto::KeyId> org_keys);

  void SetByzantine(ByzantineOrgBehavior behavior) { byzantine_ = behavior; }
  const ByzantineOrgBehavior& byzantine() const { return byzantine_; }

  sim::NodeId node() const { return node_; }
  crypto::KeyId key() const { return key_.id(); }
  const ledger::Ledger& ledger() const { return ledger_; }
  ledger::Ledger& mutable_ledger() { return ledger_; }
  const OrgPhaseStats& phase_stats() const { return phase_stats_; }
  const CatchupStats& catchup_stats() const { return catchup_stats_; }
  /// Latest checkpoint this organization sealed (null before the first).
  const std::shared_ptr<const Checkpoint>& sealed_checkpoint() const {
    return sealed_ckpt_;
  }
  /// Best external checkpoint installed so far (null before the first).
  const std::shared_ptr<const Checkpoint>& installed_checkpoint() const {
    return installed_ckpt_;
  }
  /// Latest own seal that gathered a q-of-n attestation quorum (null before
  /// the first promotion; always null with attestation disabled).
  const std::shared_ptr<const Checkpoint>& attested_checkpoint() const {
    return attested_ckpt_;
  }
  /// The quorum evidence for attested_checkpoint() / installed_checkpoint().
  const AttestationSet& attested_set() const { return attested_set_; }
  const AttestationSet& installed_set() const { return installed_set_; }
  /// Valid transactions this organization knows of: locally committed blocks
  /// plus those adopted purely as checkpoint coverage. Honest organizations
  /// must agree on this at quiescence even when some of them never replayed
  /// the covered prefix (the commit-count-divergence invariant).
  std::uint64_t effective_committed_valid() const {
    return ledger_.committed_valid() + ckpt_external_valid_;
  }
  std::uint64_t rejected_transactions() const { return rejected_; }
  /// Current CPU queueing delay (what admission control keys on).
  sim::SimTime CpuBacklog() const { return cpu_.Backlog(); }

  /// Local read of the application state ST_Oi (used by examples/tests).
  crdt::ReadResult ReadState(const std::string& object_id,
                             const std::vector<std::string>& path = {}) const {
    return ledger_.Read(object_id, path);
  }

 private:
  class LedgerReadContext;

  void OnDelivery(const sim::Delivery& delivery);
  void HandleProposal(sim::NodeId from, std::shared_ptr<const ProposalMsg> msg);
  /// Phase-1 contract execution + endorsement; runs on the CPU service queue.
  void ExecuteProposal(sim::NodeId from, const Proposal& proposal,
                       sim::SimTime arrival);
  void HandleCommit(sim::NodeId from, std::shared_ptr<const Transaction> tx,
                    bool from_gossip);
  /// Backpressure reply for work shed at admission.
  void SendBusy(sim::NodeId to, const crypto::Digest& ref, bool endorse_phase);
  void FinishCommit(sim::NodeId from, std::shared_ptr<const Transaction> tx,
                    bool from_gossip, TxVerdict verdict,
                    sim::SimTime arrival);
  void GossipTick();
  void AntiEntropyTick();
  void CheckpointTick();
  /// Builds, signs, persists and (optionally) prunes behind a checkpoint of
  /// the current committed state. Runs on the cache-lock queue. With
  /// attestation enabled, pruning waits for the quorum (see
  /// PromoteAttestedCheckpoint) and the seal is announced to every peer.
  void SealCheckpoint();
  /// Verified-checkpoint install: CRDT-merge the object states and adopt the
  /// covered-transaction index. Runs on the cache-lock queue. `attestations`
  /// is the quorum evidence that admitted the checkpoint (empty with
  /// attestation off); it is persisted alongside so a restart can re-verify.
  void InstallCheckpoint(std::shared_ptr<const Checkpoint> ckpt,
                         AttestationSet attestations);
  /// Broadcasts the current seal (or, for a forging adversary, per-peer
  /// forged variants) to every peer for attestation.
  void AnnounceCheckpoint();
  void HandleCheckpointAnnounce(sim::NodeId from,
                                std::shared_ptr<const Checkpoint> ckpt);
  void HandleCheckpointAttest(const CheckpointAttestMsg& msg);
  /// The honest attestation predicate: the seal verifies, its counters are
  /// consistent with its covered list, every covered transaction is in the
  /// local commit index with the same verdict, and the local CRDT state
  /// dominates every snapshotted object state (merging the checkpoint's copy
  /// into ours changes nothing). Anything this organization cannot vouch for
  /// first-hand is refused.
  bool CanAttest(const Checkpoint& ckpt) const;
  /// Runs when the current seal reaches q distinct valid attestations:
  /// freezes the attestation set, persists both, drops the covered prefix
  /// from the delta buffer and (optionally) prunes behind the frontier.
  void PromoteAttestedCheckpoint();
  /// The forgery a Byzantine organization announces/ships: content tampered
  /// from the honest seal (inflated counters, flipped verdict, corrupted
  /// object state), validly re-signed under its own key, varied by `nonce`
  /// when equivocating.
  std::shared_ptr<const Checkpoint> MakeForgedCheckpoint(
      std::uint64_t nonce) const;
  /// Adopts covered ids into the commit/dedup index and the valid-commit
  /// accumulators without touching object state (recovery re-installs
  /// coverage from persisted checkpoints after the snapshot states were
  /// already merged). Returns how many entries were new.
  std::size_t AdoptCheckpointCoverage(const Checkpoint& ckpt);
  /// Digest of the best checkpoint already held (zero when none) — what a
  /// SyncRequest advertises so the responder can skip re-shipping it.
  crypto::Digest BestCheckpointDigest() const;

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  crypto::PrivateKey key_;
  const crypto::Pki& pki_;
  const ContractRegistry& contracts_;
  EndorsementPolicy policy_;
  OrgTimingConfig timing_;
  VerdictTable& verdicts_;
  Rng rng_;

  sim::Processor cpu_;
  sim::Processor cache_lock_;  // single server: the cache's lock

  ledger::Ledger ledger_;
  std::vector<sim::NodeId> peers_;
  std::set<crypto::KeyId> org_keys_;
  ByzantineOrgBehavior byzantine_;

  // Ids still being advertised to peers: (tx id, remaining rounds).
  std::vector<std::pair<crypto::Digest, std::uint32_t>> advert_queue_;
  // Recently committed transactions kept to serve pulls: (tx, expiry tick).
  // Expiry is driven by the FIFO below, so a tick touches only the entries
  // that actually lapse instead of walking the whole buffer.
  std::unordered_map<crypto::Digest,
                     std::pair<std::shared_ptr<const Transaction>,
                               std::uint64_t>,
                     crypto::DigestHash>
      recent_txs_;
  // (expiry tick, id) in insertion order — monotone, since every entry gets
  // the same TTL. A re-commit refreshes the map's expiry; the stale FIFO
  // entry is skipped when it surfaces.
  std::deque<std::pair<std::uint64_t, crypto::Digest>> recent_expiry_;
  std::uint64_t gossip_tick_ = 0;
  // Pulls awaiting their GossipMsg, keyed by tx id. Suppresses duplicate
  // pulls while outstanding, and — because a dropped PullRequest/PullReply
  // would otherwise orphan the id until anti-entropy — re-sends the pull to
  // the advertiser after `pull_retry_ticks` gossip ticks, up to
  // `pull_retry_limit` times before the entry expires (a fresh advert then
  // restarts the cycle).
  struct PendingPull {
    sim::NodeId advertiser = 0;
    std::uint32_t ticks_waiting = 0;
    std::uint32_t retries = 0;
  };
  std::unordered_map<crypto::Digest, PendingPull, crypto::DigestHash>
      pending_pulls_;
  // Full committed set, retained only when anti-entropy is enabled. Bodies
  // are persisted alongside the commit record, so recovery reloads the whole
  // set; summaries use the separate count / xor accumulators, which recovery
  // restores from the commit index.
  std::vector<std::shared_ptr<const Transaction>> committed_txs_;
  std::uint64_t committed_count_ = 0;
  std::uint64_t committed_xor_ = 0;

  // Commit index: verdict + block hash per transaction id, for dedup and
  // receipt re-sends.
  struct CommitRecord {
    bool valid = false;
    crypto::Digest block_hash;
  };
  std::unordered_map<crypto::Digest, CommitRecord, crypto::DigestHash>
      commit_index_;
  // Transactions currently in the validate/commit pipeline; extra client
  // senders arriving meanwhile get their receipt on completion.
  std::unordered_map<crypto::Digest, std::vector<sim::NodeId>,
                     crypto::DigestHash>
      in_flight_;

  // Ids whose admission was traced (kPipeAdmit) and whose commit has not
  // finished: released when the commit finishes, when the dedup stage finds
  // it already committed, or at a crash. Empty in untraced runs.
  std::unordered_set<crypto::Digest, crypto::DigestHash> admitted_;

  // Checkpoint state. `sealed_ckpt_` is this organization's own latest seal:
  // the only checkpoint whose chain fields may seed the chain base, the only
  // frontier pruning is allowed behind, and the one sync replies ship (its
  // delta is exactly `committed_txs_`, cleared at each seal).
  // `installed_ckpt_` is the best external checkpoint merged in — state and
  // coverage only, never a chain base (its chain belongs to its origin).
  std::shared_ptr<const Checkpoint> sealed_ckpt_;
  std::shared_ptr<const Checkpoint> installed_ckpt_;
  std::uint64_t ckpt_seq_ = 0;
  std::uint64_t commits_at_last_seal_ = 0;
  bool seal_in_flight_ = false;
  // Quorum-attestation state (meaningful only with checkpoint.attest).
  // `seal_attest_` collects signatures over the *current* seal's digest — a
  // std::map so promotion freezes them in deterministic (key id) order.
  // `attested_ckpt_` + `attested_set_` is the latest own seal that reached
  // its quorum (what sync replies ship); `installed_set_` is the evidence
  // that admitted `installed_ckpt_`. `stale_ckpt_` pins the *first* promoted
  // checkpoint for the replay-stale adversary.
  std::map<crypto::KeyId, crypto::Signature> seal_attest_;
  std::shared_ptr<const Checkpoint> attested_ckpt_;
  AttestationSet attested_set_;
  AttestationSet installed_set_;
  std::shared_ptr<const Checkpoint> stale_ckpt_;
  AttestationSet stale_set_;
  // Valid commits known only as checkpoint coverage (no local block).
  std::uint64_t ckpt_external_valid_ = 0;
  CatchupStats catchup_stats_;

  OrgPhaseStats phase_stats_;
  std::uint64_t rejected_ = 0;
  bool running_ = true;
  CommitObserver commit_observer_;
};

}  // namespace orderless::core
