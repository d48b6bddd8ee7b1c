// An OrderlessChain client: drives the two-phase execute–commit protocol
// (paper §4, Fig. 1) — broadcast proposals to q organizations, check that
// all endorsements carry identical write-sets, assemble + sign the
// transaction, send it for commit, and await q receipts.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/messages.h"
#include "sim/network.h"

namespace orderless::core {

struct ClientTimingConfig {
  sim::SimTime endorse_timeout = sim::Sec(4);
  sim::SimTime commit_timeout = sim::Sec(4);
  /// Total tries for each phase (1 = no retry; Fig. 8(a) behaviour).
  std::uint32_t max_attempts = 1;
  /// When set, organizations that timed out or mis-endorsed are avoided on
  /// later submissions (Fig. 8(b) behaviour).
  bool avoid_byzantine = false;

  // ---- Overload-era retry policy (all off by default: seed behaviour) ----

  /// Base delay of the decorrelated-jitter exponential backoff between
  /// attempts: next = base + uniform(0, min(cap, prev*3) - base). 0 retries
  /// immediately. Busy replies raise the delay to their retry-after hint.
  sim::SimTime backoff_base = 0;
  sim::SimTime backoff_cap = sim::Sec(8);
  /// Per-transaction bound on how many failures (timeout / Busy) one
  /// organization may accrue before selection prefers untried spare
  /// organizations over it. 0 = unbounded.
  std::uint32_t org_retry_budget = 0;
  /// Circuit breaker per organization: opens after this many consecutive
  /// failures (0 disables the breaker). Open organizations are skipped at
  /// selection; after `breaker_cooldown` the breaker half-opens and a probe
  /// request decides between closing it and re-opening (with the cooldown
  /// doubling up to 8x).
  std::uint32_t breaker_threshold = 0;
  sim::SimTime breaker_cooldown = sim::Sec(10);
};

/// Per-organization circuit-breaker state (closed = healthy).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

/// Robustness counters one client accumulates (aggregated by the harness).
struct ClientRetryStats {
  std::uint64_t retries = 0;            // attempts beyond each first try
  std::uint64_t busy_received = 0;      // BusyMsg backpressure replies seen
  std::uint64_t commit_resends = 0;     // phase-2 re-sends of an assembled tx
  std::uint64_t breaker_opens = 0;      // closed/half-open -> open
  std::uint64_t breaker_closes = 0;     // open/half-open -> closed
  std::uint64_t half_open_probes = 0;   // probe requests to half-open orgs

  /// Every counter once, with its metric name, in declaration order.
  static constexpr NamedCounter<ClientRetryStats> kCounters[] = {
      {"robustness.client_retries", &ClientRetryStats::retries},
      {"robustness.busy_received", &ClientRetryStats::busy_received},
      {"robustness.commit_resends", &ClientRetryStats::commit_resends},
      {"robustness.breaker_opens", &ClientRetryStats::breaker_opens},
      {"robustness.breaker_closes", &ClientRetryStats::breaker_closes},
      {"robustness.half_open_probes", &ClientRetryStats::half_open_probes},
  };
};
static_assert(ListsEveryCounter<ClientRetryStats>());

/// Byzantine client faults (paper §8, four types).
struct ByzantineClientBehavior {
  bool active = false;
  bool no_commit = false;            // (1) proposals only, never commits
  bool tamper_writeset = false;      // corrupts the write-set before signing
  bool partial_commit = false;       // (2) commits to a single organization
  bool inconsistent_clocks = false;  // (3) different clock per organization
  bool frozen_clock = false;         // (4) never increments its clock
};

/// Result of one submitted transaction, reported via callback.
struct TxOutcome {
  bool committed = false;  // q valid receipts collected
  bool rejected = false;   // an organization rejected the transaction
  bool read = false;
  std::string failure;     // empty on success
  sim::SimTime latency = 0;
  sim::SimTime phase1 = 0;
  sim::SimTime phase2 = 0;
  crdt::Value read_value;
};

using TxCallback = std::function<void(const TxOutcome&)>;

class Client {
 public:
  /// `org_nodes` lists the organizations (node ids, aligned with the
  /// policy's n).
  Client(sim::Simulation& simulation, sim::Network& network, sim::NodeId node,
         crypto::PrivateKey key, const crypto::Pki& pki,
         EndorsementPolicy policy, std::vector<sim::NodeId> org_nodes,
         ClientTimingConfig timing, Rng rng);

  void Start();

  /// Invokes a modify-function: full two-phase protocol.
  void SubmitModify(const std::string& contract, const std::string& function,
                    std::vector<crdt::Value> args, TxCallback callback);

  /// Invokes a read-function: execution phase only.
  void SubmitRead(const std::string& contract, const std::string& function,
                  std::vector<crdt::Value> args, TxCallback callback);

  void SetByzantine(ByzantineClientBehavior behavior) {
    byzantine_ = behavior;
  }

  /// Biases organization selection (configuration 8's normal-distribution
  /// workload); empty = uniform. Must match org_nodes in length.
  void SetOrgWeights(std::vector<double> weights) {
    org_weights_ = std::move(weights);
  }

  crypto::KeyId key() const { return key_.id(); }
  sim::NodeId node() const { return node_; }
  const std::set<std::size_t>& suspected_orgs() const { return suspected_; }
  const ClientRetryStats& retry_stats() const { return retry_stats_; }
  /// The breaker state of `org` as selection would see it now (an expired
  /// open cooldown reads as half-open).
  BreakerState breaker_state(std::size_t org) const;

 private:
  enum class Phase { kEndorse, kCommit };

  struct Pending {
    std::uint64_t seq = 0;
    Proposal proposal;
    TxCallback callback;
    sim::SimTime start = 0;
    sim::SimTime phase1_done = 0;
    Phase phase = Phase::kEndorse;
    std::uint32_t attempt = 1;
    std::uint64_t timeout_generation = 0;
    std::vector<std::size_t> chosen;  // org indices for this attempt
    // Phase 1: endorsements grouped by write-set digest.
    struct WsGroup {
      std::vector<crdt::Operation> ops;
      std::vector<Endorsement> endorsements;
      std::vector<std::size_t> orgs;
    };
    std::map<crypto::Digest, WsGroup> groups;
    std::set<std::size_t> replied;
    crdt::Value read_value;
    bool read_value_set = false;
    std::uint32_t read_ok = 0;
    // Retry bookkeeping: per-org failure charges for this transaction (the
    // retry budget), and the strongest Busy retry-after hint this attempt.
    std::map<std::size_t, std::uint32_t> failure_charges;
    sim::SimTime busy_retry_hint = 0;
    // Phase 2.
    std::shared_ptr<const Transaction> tx;
    std::vector<std::size_t> commit_targets;
    std::set<std::size_t> receipt_orgs;   // distinct orgs with valid receipts
    std::set<std::size_t> commit_busy;    // commit targets that replied Busy
  };

  void Submit(const std::string& contract, const std::string& function,
              std::vector<crdt::Value> args, bool read_only,
              TxCallback callback);
  void StartEndorsePhase(Pending& p);
  void StartCommitPhase(Pending& p, Pending::WsGroup group);
  void SendCommits(Pending& p);
  void ResendCommit(Pending& p);
  void OnDelivery(const sim::Delivery& delivery);
  void HandleEndorseReply(sim::NodeId from, const EndorseReplyMsg& msg);
  void HandleCommitReply(sim::NodeId from, const CommitReplyMsg& msg);
  void HandleBusy(sim::NodeId from, const BusyMsg& msg);
  void OnTimeout(std::uint64_t seq, std::uint64_t generation);
  /// Retries the pending transaction's current phase after the backoff
  /// delay (immediate when backoff is disabled and no Busy hint arrived).
  void ScheduleRetry(Pending& p);
  /// Ends the endorse round early once every contacted org has answered
  /// (endorsement, error, or Busy) without producing q matching write-sets.
  void MaybeFinishEndorseRound(Pending& p);
  void Finish(Pending& p, TxOutcome outcome);
  std::vector<std::size_t> PickOrgs(Pending& p);
  std::optional<std::size_t> OrgIndexOfNode(sim::NodeId node) const;
  void ArmTimeout(Pending& p, sim::SimTime delay);
  /// Decorrelated-jitter backoff (deterministic given the client's rng).
  sim::SimTime NextBackoff();
  // Circuit-breaker transitions; no-ops while breaker_threshold == 0.
  void BreakerFailure(std::size_t org);
  void BreakerSuccess(std::size_t org);
  void ChargeFailure(Pending& p, std::size_t org);

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  crypto::PrivateKey key_;
  const crypto::Pki& pki_;
  EndorsementPolicy policy_;
  std::vector<sim::NodeId> org_nodes_;
  ClientTimingConfig timing_;
  Rng rng_;
  ByzantineClientBehavior byzantine_;

  clk::LamportClock clock_;
  std::vector<double> org_weights_;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  // Routes message digests (proposal digest / tx id) to pending entries.
  std::unordered_map<crypto::Digest, std::uint64_t, crypto::DigestHash>
      route_;
  std::set<std::size_t> suspected_;

  // Circuit breaker per organization. Unlike `suspected_` (a permanent
  // verdict), the breaker lets a recovered or formerly-overloaded
  // organization rejoin through a half-open probe.
  struct OrgHealth {
    BreakerState state = BreakerState::kClosed;
    std::uint32_t consecutive_failures = 0;
    sim::SimTime open_until = 0;
    std::uint32_t reopen_streak = 0;  // scales the cooldown, capped at 8x
  };
  std::vector<OrgHealth> org_health_;
  ClientRetryStats retry_stats_;
  sim::SimTime last_backoff_ = 0;
};

}  // namespace orderless::core
