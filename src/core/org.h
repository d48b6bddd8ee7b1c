// An OrderlessChain organization: hosts smart contracts, endorses proposals,
// validates and commits transactions, and gossips committed transactions to
// its peers (paper §4).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/flat_table.h"
#include "common/rng.h"
#include "core/contract.h"
#include "core/messages.h"
#include "core/policy.h"
#include "ledger/ledger.h"
#include "sim/costs.h"
#include "sim/network.h"
#include "sim/processor.h"

namespace orderless::core {

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
/// Proposals also carry the client's endorsement deadline: one that will
/// have passed by the time a core frees up is dropped instead of burning
/// CPU on a reply nobody is waiting for.
struct OverloadConfig {
  bool enabled = false;  // off = the unbounded seed behaviour
  /// Admission ceilings: new work of a class is shed once the CPU backlog
  /// (queueing delay ahead of it) exceeds the class's bound.
  sim::SimTime max_backlog_gossip = sim::Ms(250);
  sim::SimTime max_backlog_endorse = sim::Ms(600);
  sim::SimTime max_backlog_commit = sim::Sec(2);
};

/// Periodic signed-checkpoint sealing + snapshot-transfer catch-up (see
/// core/checkpoint.h and DESIGN.md §12–13). A seal `interval` above 0 turns
/// it on. Requires anti-entropy: catch-up rides the Summary → SyncRequest
/// exchange, which answers with checkpoint + delta instead of the full
/// committed set. Every organization in one network must agree on the
/// interval being set (a delta-only sync reply assumes the requester can
/// install the accompanying checkpoint).
///
/// Install trust is q-of-n: a sealed checkpoint is broadcast to every peer;
/// peers that can reproduce its claims against their own state return a
/// signed attestation, and only a checkpoint carrying q valid attestations
/// from distinct organization keys is ever shipped in sync replies or
/// installed. Pruning waits for that quorum, so full-history sync stays
/// available while a seal lacks it.
struct CheckpointConfig {
  /// Seal period (0 = checkpoints off). Like gossip, each organization
  /// ticks with a random phase offset drawn at Start().
  sim::SimTime interval = 0;
  /// Skip the seal when fewer new commits accumulated since the last one
  /// (a checkpoint that moves the frontier by almost nothing isn't worth
  /// its snapshot bytes).
  std::uint64_t min_new_commits = 4;
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
  std::uint64_t ckpt_txs_covered = 0; // tx ids adopted as committed from
                                      // checkpoints instead of re-pulled
  std::uint64_t sync_txs_sent = 0;    // bodies pushed in anti-entropy syncs
  std::uint64_t sync_txs_received = 0;// bodies received via gossip/sync
  std::uint64_t pruned_records = 0;   // store rows reclaimed behind frontiers
  std::uint64_t recovered_records = 0;// commit records replayed at restart
  // ---- Quorum attestation ----
  std::uint64_t ckpt_announced = 0;       // announce broadcasts sent
  std::uint64_t ckpt_attest_sent = 0;     // attestations signed for peers
  std::uint64_t ckpt_attest_received = 0; // valid attestations accepted
  std::uint64_t ckpt_attested = 0;        // own seals promoted to quorum
  std::uint64_t ckpt_refused = 0;         // announces refused (claims did not
                                          // reproduce against local state)

  /// Every counter once, with its metric name, in declaration order (the
  /// order the chaos fingerprint folds them in).
  static constexpr NamedCounter<CatchupStats> kCounters[] = {
      {"catchup.ckpt_sealed", &CatchupStats::ckpt_sealed},
      {"catchup.ckpt_sent", &CatchupStats::ckpt_sent},
      {"catchup.ckpt_installed", &CatchupStats::ckpt_installed},
      {"catchup.ckpt_rejected", &CatchupStats::ckpt_rejected},
      {"catchup.ckpt_txs_covered", &CatchupStats::ckpt_txs_covered},
      {"catchup.sync_txs_sent", &CatchupStats::sync_txs_sent},
      {"catchup.sync_txs_received", &CatchupStats::sync_txs_received},
      {"catchup.pruned_records", &CatchupStats::pruned_records},
      {"catchup.recovered_records", &CatchupStats::recovered_records},
      {"catchup.attest.announced", &CatchupStats::ckpt_announced},
      {"catchup.attest.sent", &CatchupStats::ckpt_attest_sent},
      {"catchup.attest.received", &CatchupStats::ckpt_attest_received},
      {"catchup.attest.promoted", &CatchupStats::ckpt_attested},
      {"catchup.attest.refused", &CatchupStats::ckpt_refused},
  };
};
static_assert(ListsEveryCounter<CatchupStats>());

/// An organization's protocol timers and layers. Its CPU service times are
/// rows of the cost table (sim/costs.h); only the two base costs are
/// settable, so a bench can move the saturation knee.
struct OrgTimingConfig {
  sim::SimTime endorse_base = sim::cost::kOrgEndorseBase;
  sim::SimTime commit_base = sim::cost::kOrgCommitBase;
  sim::SimTime gossip_interval = sim::Sec(1);
  std::uint32_t gossip_fanout = 1;   // "Gossip Ratio" control variable
  std::uint32_t gossip_rounds = 3;   // ticks each tx keeps being pushed
  /// Anti-entropy reconciliation period (0 disables). Repairs divergence
  /// push gossip missed, e.g. after partitions heal. Requires retaining the
  /// committed transaction set, so large benchmarks leave it off.
  sim::SimTime antientropy_interval = 0;

  /// Overload protection (bounded admission + priority shedding).
  OverloadConfig overload;

  /// Signed checkpoints + O(delta) catch-up (interval 0 = the
  /// pre-checkpoint behaviour, bit-identical to it).
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

  // ---- Checkpoint-layer attacks (quorum attestation contains them: a
  // forgery can never gather q honest attestations) ----
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

/// Overload-shedding counters (all zero while the overload layer is off).
struct OverloadStats {
  std::uint64_t shed_endorse = 0;      // proposals shed at admission
  std::uint64_t shed_commit = 0;       // client commits shed at admission
  std::uint64_t shed_gossip = 0;       // gossip work declined under load
  std::uint64_t shed_deadline = 0;     // endorsements dropped past deadline
  std::uint64_t busy_sent = 0;         // BusyMsg backpressure replies

  std::uint64_t TotalShed() const {
    return shed_endorse + shed_commit + shed_gossip + shed_deadline;
  }

  /// Every counter once, with its metric name, in declaration order.
  static constexpr NamedCounter<OverloadStats> kCounters[] = {
      {"robustness.shed_endorse", &OverloadStats::shed_endorse},
      {"robustness.shed_commit", &OverloadStats::shed_commit},
      {"robustness.shed_gossip", &OverloadStats::shed_gossip},
      {"robustness.shed_deadline", &OverloadStats::shed_deadline},
      {"robustness.busy_sent", &OverloadStats::busy_sent},
  };
};
static_assert(ListsEveryCounter<OverloadStats>());

/// Phase-time accumulators backing Table 3.
struct OrgPhaseStats {
  std::uint64_t endorse_count = 0;
  std::uint64_t endorse_time_us = 0;   // proposal arrival → endorsement sent
  std::uint64_t commit_count = 0;
  std::uint64_t commit_time_us = 0;    // commit arrival → committed
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
  /// `store` is the ledger's backing KV store; pass nullptr for a private
  /// in-memory store. A host that wants to crash and later rebuild the
  /// organization keeps the shared_ptr and hands it to the replacement.
  Organization(sim::Simulation& simulation, sim::Network& network,
               sim::NodeId node, crypto::PrivateKey key,
               const crypto::Pki& pki, const ContractRegistry& contracts,
               EndorsementPolicy policy, OrgTimingConfig timing, Rng rng,
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
  /// the transaction table from the ledger's persistent store. Call before
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
  const OverloadStats& overload_stats() const { return overload_stats_; }
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
  /// the first promotion).
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

  /// Local read of the application state ST_Oi (used by examples/tests).
  crdt::ReadResult ReadState(const std::string& object_id,
                             const std::vector<std::string>& path = {}) const {
    return ledger_.Read(object_id, path);
  }

 private:
  class LedgerReadContext;
  struct TxEntry;

  void OnDelivery(const sim::Delivery& delivery);
  void HandleProposal(sim::NodeId from, std::shared_ptr<const ProposalMsg> msg);
  /// Phase-1 contract execution + endorsement; runs on the CPU service queue.
  void ExecuteProposal(sim::NodeId from, const Proposal& proposal,
                       sim::SimTime arrival);
  void HandleCommit(sim::NodeId from, std::shared_ptr<const Transaction> tx,
                    bool from_gossip);
  /// Backpressure reply for work shed at admission. Its retry-after hint is
  /// the current CPU backlog, capped here.
  static constexpr sim::SimTime kMaxRetryAfter = sim::Sec(2);
  void SendBusy(sim::NodeId to, const crypto::Digest& ref, bool endorse_phase);
  void FinishCommit(sim::NodeId from, std::shared_ptr<const Transaction> tx,
                    bool from_gossip, TxVerdict verdict,
                    sim::SimTime arrival);
  /// Signs and sends the receipt of a committed `entry`.
  void SendReceipt(sim::NodeId to, const crypto::Digest& id,
                   const TxEntry& entry);
  void GossipTick();
  void AntiEntropyTick();
  void CheckpointTick();
  /// Builds, signs, persists and self-attests a checkpoint of the current
  /// committed state, then announces it to every peer. Runs on the
  /// cache-lock queue. Pruning waits for the quorum (see
  /// PromoteAttestedCheckpoint).
  void SealCheckpoint();
  /// Verified-checkpoint install: CRDT-merge the object states and adopt the
  /// covered transactions as committed. Runs on the cache-lock queue.
  /// `attestations` is the quorum evidence that admitted the checkpoint; it
  /// is persisted with it in one record.
  void InstallCheckpoint(std::shared_ptr<const Checkpoint> ckpt,
                         AttestationSet attestations);
  /// Broadcasts the current seal (or, for a forging adversary, per-peer
  /// forged variants) to every peer for attestation.
  void AnnounceCheckpoint();
  void HandleCheckpointAnnounce(sim::NodeId from,
                                std::shared_ptr<const Checkpoint> ckpt);
  void HandleCheckpointAttest(const CheckpointAttestMsg& msg);
  /// The honest attestation predicate: the seal verifies, its counters are
  /// consistent with its covered list, every covered transaction is
  /// committed locally with the same verdict, and the local CRDT state
  /// dominates every snapshotted object state (merging the checkpoint's copy
  /// into ours changes nothing). Anything this organization cannot vouch for
  /// first-hand is refused.
  bool CanAttest(const Checkpoint& ckpt) const;
  /// Runs when the current seal reaches q distinct valid attestations:
  /// freezes the attestation set, persists both in one record, drops the
  /// covered prefix from the delta buffer and prunes behind the frontier.
  void PromoteAttestedCheckpoint();
  /// The forgery a Byzantine organization announces/ships: content tampered
  /// from the honest seal (inflated counters, flipped verdict, corrupted
  /// object state), validly re-signed under its own key, varied by `nonce`
  /// when equivocating.
  std::shared_ptr<const Checkpoint> MakeForgedCheckpoint(
      std::uint64_t nonce) const;
  /// Marks covered ids committed in the transaction table and adds them to
  /// the valid-commit accumulators without touching object state (recovery
  /// re-installs coverage from persisted checkpoints after the snapshot
  /// states were already merged). Returns how many valid ids were new.
  std::size_t AdoptCheckpointCoverage(const Checkpoint& ckpt);
  /// Digest of the best checkpoint already held (zero when none) — what a
  /// SyncRequest advertises so the responder can skip re-shipping it.
  crypto::Digest BestCheckpointDigest() const;
  /// Removes the bodies `ckpt` covers from `committed_txs_`.
  void DropCoveredBodies(const Checkpoint& ckpt);
  /// Reclaims the store behind `ckpt`, an own promoted seal.
  void PruneBehind(const Checkpoint& ckpt);

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  crypto::PrivateKey key_;
  const crypto::Pki& pki_;
  const ContractRegistry& contracts_;
  EndorsementPolicy policy_;
  OrgTimingConfig timing_;
  Rng rng_;

  sim::Processor cpu_;
  sim::Processor cache_lock_;  // single server: the cache's lock

  ledger::Ledger ledger_;
  std::vector<sim::NodeId> peers_;
  std::set<crypto::KeyId> org_keys_;
  ByzantineOrgBehavior byzantine_;

  // Everything this organization knows about one transaction id (paper §4:
  // validate it once, answer duplicates with the receipt, gossip what was
  // committed). Committed entries live for the whole run.
  static constexpr std::uint64_t kNotQueued = ~std::uint64_t{0};
  struct TxEntry {
    crypto::Digest block_hash;  // zero for ids adopted from a checkpoint
    // Position in the stream of gossip_fifo_ pushes (see gossip_popped_);
    // kNotQueued unless this org committed the id as valid.
    std::uint64_t fifo_position = kNotQueued;
    bool committed = false;  // `valid` and `block_hash` are final
    bool valid = false;
    bool in_flight = false;  // in the validate/commit pipeline
    // Traced runs only: kPipeAdmit was emitted and the commit has not
    // finished. Untraced runs create no entry before the dedup stage.
    bool admitted = false;
  };
  FlatTable<crypto::Digest, TxEntry, crypto::DigestHash> txs_;
  std::uint64_t committed_ids_ = 0;  // entries with `committed` set
  // Client senders that sent an id again while it was in flight; they get
  // the receipt when the commit finishes. Almost always empty.
  std::unordered_map<crypto::Digest, std::vector<sim::NodeId>,
                     crypto::DigestHash>
      waiters_;
  // (gossip tick at commit, body) per valid commit, in commit order. An id
  // committed while the tick read k is advertised while the tick reads t
  // with k + R > t (R = gossip_rounds); pulls for it are served from here
  // until the tick reaches k + R + 4 and the pair is popped.
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const Transaction>>>
      gossip_fifo_;
  std::uint64_t gossip_popped_ = 0;  // pairs popped so far
  std::uint64_t gossip_tick_ = 0;
  // Pulls awaiting their GossipMsg, keyed by tx id. Suppresses duplicate
  // pulls while outstanding, and — because a dropped PullRequest/PullReply
  // would otherwise orphan the id until anti-entropy — re-sends the pull to
  // the advertiser after kPullRetryTicks gossip ticks, up to kPullRetryLimit
  // times before the entry expires (a fresh advert then restarts the cycle).
  static constexpr std::uint32_t kPullRetryTicks = 2;
  static constexpr std::uint32_t kPullRetryLimit = 3;
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
  // restores from the ledger's commit records.
  std::vector<std::shared_ptr<const Transaction>> committed_txs_;
  std::uint64_t committed_count_ = 0;
  std::uint64_t committed_xor_ = 0;

  // Checkpoint state. `sealed_ckpt_` is this organization's own latest seal:
  // the only checkpoint whose chain fields may seed the chain base, and the
  // one announced for attestation. `installed_ckpt_` is the best external
  // checkpoint merged in — state and coverage only, never a chain base (its
  // chain belongs to its origin).
  std::shared_ptr<const Checkpoint> sealed_ckpt_;
  std::shared_ptr<const Checkpoint> installed_ckpt_;
  std::uint64_t ckpt_seq_ = 0;
  std::uint64_t commits_at_last_seal_ = 0;
  bool seal_in_flight_ = false;
  // `seal_attest_` collects signatures over the *current* seal's digest — a
  // std::map so promotion freezes them in deterministic (key id) order.
  // `attested_ckpt_` + `attested_set_` is the latest own seal that reached
  // its quorum (the frontier storage is pruned behind); it and the
  // installed checkpoint with `installed_set_` are what sync replies ship.
  // `stale_ckpt_` pins the *first* quorum-backed checkpoint for the
  // replay-stale adversary.
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
  OverloadStats overload_stats_;
  std::uint64_t rejected_ = 0;
  bool running_ = true;
  CommitObserver commit_observer_;
};

}  // namespace orderless::core
