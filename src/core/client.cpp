#include "core/client.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"

namespace orderless::core {

Client::Client(sim::Simulation& simulation, sim::Network& network,
               sim::NodeId node, crypto::PrivateKey key,
               const crypto::Pki& pki, EndorsementPolicy policy,
               std::vector<sim::NodeId> org_nodes, ClientTimingConfig timing,
               Rng rng)
    : simulation_(simulation),
      network_(network),
      node_(node),
      key_(key),
      pki_(pki),
      policy_(policy),
      org_nodes_(std::move(org_nodes)),
      timing_(timing),
      rng_(rng),
      clock_(key.id()),
      org_health_(org_nodes_.size()) {}

void Client::Start() {
  network_.Register(node_,
                    [this](const sim::Delivery& d) { OnDelivery(d); });
}

void Client::SubmitModify(const std::string& contract,
                          const std::string& function,
                          std::vector<crdt::Value> args, TxCallback callback) {
  Submit(contract, function, std::move(args), /*read_only=*/false,
         std::move(callback));
}

void Client::SubmitRead(const std::string& contract,
                        const std::string& function,
                        std::vector<crdt::Value> args, TxCallback callback) {
  Submit(contract, function, std::move(args), /*read_only=*/true,
         std::move(callback));
}

void Client::Submit(const std::string& contract, const std::string& function,
                    std::vector<crdt::Value> args, bool read_only,
                    TxCallback callback) {
  const std::uint64_t seq = next_seq_++;
  Pending& p = pending_[seq];
  p.seq = seq;
  p.callback = std::move(callback);
  p.start = simulation_.now();
  p.proposal.client = key_.id();
  p.proposal.contract = contract;
  p.proposal.function = function;
  p.proposal.args = std::move(args);
  p.proposal.read_only = read_only;
  // Byzantine fault (4): a frozen clock prevents organizations from
  // inferring happened-before relations between this client's operations.
  p.proposal.clock =
      (byzantine_.active && byzantine_.frozen_clock) ? clock_.Peek()
                                                     : clock_.Tick();
  if (obs::Tracer* t = simulation_.tracer()) {
    // Digest() warms the proposal's digest cache; StartEndorsePhase does the
    // same unconditionally, so tracing changes nothing downstream.
    t->Instant(obs::EventKind::kTxSubmit, p.start, node_,
               p.proposal.Digest().Prefix64(), read_only);
  }
  StartEndorsePhase(p);
}

// ---------------------------------------------------------------------------
// Circuit breaker

BreakerState Client::breaker_state(std::size_t org) const {
  const OrgHealth& h = org_health_[org];
  if (h.state == BreakerState::kOpen && simulation_.now() >= h.open_until) {
    return BreakerState::kHalfOpen;  // cooldown expired: probing allowed
  }
  return h.state;
}

void Client::BreakerFailure(std::size_t org) {
  if (timing_.breaker_threshold == 0) return;
  OrgHealth& h = org_health_[org];
  switch (breaker_state(org)) {
    case BreakerState::kOpen:
      return;  // still cooling down; nothing new learned
    case BreakerState::kHalfOpen:
      // The probe failed: re-open with a longer cooldown (up to 8x).
      h.state = BreakerState::kOpen;
      h.reopen_streak = std::min<std::uint32_t>(h.reopen_streak + 1, 3);
      h.open_until =
          simulation_.now() + (timing_.breaker_cooldown << h.reopen_streak);
      ++retry_stats_.breaker_opens;
      return;
    case BreakerState::kClosed:
      if (++h.consecutive_failures >= timing_.breaker_threshold) {
        h.state = BreakerState::kOpen;
        h.open_until = simulation_.now() + timing_.breaker_cooldown;
        ++retry_stats_.breaker_opens;
      }
      return;
  }
}

void Client::BreakerSuccess(std::size_t org) {
  if (timing_.breaker_threshold == 0) return;
  OrgHealth& h = org_health_[org];
  const bool was_unhealthy = h.state != BreakerState::kClosed;
  h.state = BreakerState::kClosed;
  h.consecutive_failures = 0;
  h.reopen_streak = 0;
  h.open_until = 0;
  if (was_unhealthy) ++retry_stats_.breaker_closes;
}

void Client::ChargeFailure(Pending& p, std::size_t org) {
  ++p.failure_charges[org];
}

// ---------------------------------------------------------------------------
// Organization selection

std::vector<std::size_t> Client::PickOrgs(Pending& p) {
  const std::size_t n = org_nodes_.size();
  const bool breaker = timing_.breaker_threshold > 0;

  // Sampling helper honoring the optional per-org weights (configuration 8's
  // normal-distribution workload): k distinct picks from `pool`.
  auto sample = [this, n](const std::vector<std::size_t>& pool,
                          std::size_t k) {
    k = std::min(k, pool.size());
    std::vector<std::size_t> picked;
    if (k == 0) return picked;
    if (org_weights_.size() == n) {
      std::vector<std::size_t> remaining = pool;
      while (picked.size() < k && !remaining.empty()) {
        double total = 0;
        for (std::size_t idx : remaining) total += org_weights_[idx];
        double r = rng_.NextDouble() * total;
        std::size_t chosen = remaining.size() - 1;
        for (std::size_t i = 0; i < remaining.size(); ++i) {
          r -= org_weights_[remaining[i]];
          if (r <= 0) {
            chosen = i;
            break;
          }
        }
        picked.push_back(remaining[chosen]);
        remaining.erase(remaining.begin() +
                        static_cast<std::ptrdiff_t>(chosen));
      }
      return picked;
    }
    for (std::size_t idx : rng_.SampleDistinct(pool.size(), k)) {
      picked.push_back(pool[idx]);
    }
    return picked;
  };

  // Tier the organizations: healthy first, half-open (probe candidates)
  // next, retry-budget-exhausted last. Open breakers are skipped outright.
  std::vector<std::size_t> healthy, half_open, spent;
  for (std::size_t i = 0; i < n; ++i) {
    if (timing_.avoid_byzantine && suspected_.contains(i)) continue;
    const BreakerState view =
        breaker ? breaker_state(i) : BreakerState::kClosed;
    if (view == BreakerState::kOpen) continue;
    const auto charges = p.failure_charges.find(i);
    if (timing_.org_retry_budget > 0 && charges != p.failure_charges.end() &&
        charges->second >= timing_.org_retry_budget) {
      spent.push_back(i);
    } else if (view == BreakerState::kHalfOpen) {
      half_open.push_back(i);
    } else {
      healthy.push_back(i);
    }
  }

  const std::size_t want = std::min<std::size_t>(n, policy_.q + timing_.hedge);
  std::vector<std::size_t> picked = sample(healthy, want);
  if (picked.size() > policy_.q) {
    retry_stats_.hedged_requests += picked.size() - policy_.q;
  }
  for (const std::vector<std::size_t>* tier : {&half_open, &spent}) {
    if (picked.size() >= want) break;
    for (std::size_t idx : sample(*tier, want - picked.size())) {
      picked.push_back(idx);
    }
  }
  if (picked.size() < policy_.q) {
    // Not enough organizations survive the filters; fall back to everyone
    // rather than deadlocking the submission.
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    picked = sample(all, policy_.q);
  } else if (!half_open.empty()) {
    // A recovered organization can only prove itself by being asked: if no
    // half-open org made the cut, append one as an extra probe. Its reply
    // (or failure) drives the breaker; the quorum does not depend on it.
    const bool has_probe = std::any_of(
        picked.begin(), picked.end(), [&](std::size_t idx) {
          return std::find(half_open.begin(), half_open.end(), idx) !=
                 half_open.end();
        });
    if (!has_probe) {
      picked.push_back(half_open[rng_.NextBelow(half_open.size())]);
    }
  }
  if (breaker) {
    for (std::size_t idx : picked) {
      if (breaker_state(idx) == BreakerState::kHalfOpen) {
        ++retry_stats_.half_open_probes;
      }
    }
  }
  return picked;
}

// ---------------------------------------------------------------------------
// Retry machinery

sim::SimTime Client::NextBackoff() {
  if (timing_.backoff_base == 0) return 0;
  // Decorrelated jitter: next = base + uniform(0, min(cap, prev*3) - base).
  const sim::SimTime floor = timing_.backoff_base;
  const sim::SimTime prev = std::max(last_backoff_, floor);
  const sim::SimTime ceil =
      std::max(floor, std::min<sim::SimTime>(timing_.backoff_cap, prev * 3));
  last_backoff_ = floor + (ceil > floor ? rng_.NextBelow(ceil - floor + 1) : 0);
  return last_backoff_;
}

void Client::ScheduleRetry(Pending& p) {
  // A Busy retry-after hint overrides a shorter backoff: the organization
  // told us how long its queue is.
  const sim::SimTime delay = std::max(NextBackoff(), p.busy_retry_hint);
  p.busy_retry_hint = 0;
  const std::uint64_t generation = ++p.timeout_generation;
  const std::uint64_t seq = p.seq;
  const bool endorse = p.phase == Phase::kEndorse;
  simulation_.Schedule(delay, [this, seq, generation, endorse] {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    Pending& pending = it->second;
    if (pending.timeout_generation != generation) return;  // superseded
    if (endorse) {
      StartEndorsePhase(pending);
    } else {
      ResendCommit(pending);
    }
  });
}

void Client::ArmTimeout(Pending& p, sim::SimTime delay) {
  const std::uint64_t generation = ++p.timeout_generation;
  const std::uint64_t seq = p.seq;
  simulation_.Schedule(delay,
                       [this, seq, generation] { OnTimeout(seq, generation); });
}

// ---------------------------------------------------------------------------
// Phase 1: endorsement

void Client::StartEndorsePhase(Pending& p) {
  p.phase = Phase::kEndorse;
  p.groups.clear();
  p.replied.clear();
  p.busy_retry_hint = 0;
  p.chosen = PickOrgs(p);

  const sim::SimTime deadline = simulation_.now() + timing_.endorse_timeout;
  // Hash once here; every copy below inherits the warm digest cache, so
  // Digest() for routing and WireSize() at Send are both free.
  (void)p.proposal.Digest();
  const bool mutate_per_org =
      byzantine_.active && byzantine_.inconsistent_clocks;
  if (!mutate_per_org) {
    // Honest proposals are identical for every organization: one immutable
    // message fans out to all q sends. The digest cache is warm, so the
    // receiving lanes only ever read the shared proposal.
    auto msg = std::make_shared<ProposalMsg>();
    msg->proposal = p.proposal;
    msg->deadline = deadline;
    route_[p.proposal.Digest()] = p.seq;
    for (std::size_t i = 0; i < p.chosen.size(); ++i) {
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Instant(obs::EventKind::kProposalSend, simulation_.now(), node_,
                   p.proposal.Digest().Prefix64(), org_nodes_[p.chosen[i]]);
      }
      network_.Send(node_, org_nodes_[p.chosen[i]], msg);
    }
    ArmTimeout(p, timing_.endorse_timeout);
    return;
  }
  for (std::size_t i = 0; i < p.chosen.size(); ++i) {
    // Byzantine fault (3): different logical timestamps per organization;
    // the endorsements cannot match and no valid transaction forms. The
    // in-place mutation voids the copied digest cache.
    Proposal proposal = p.proposal;
    proposal.clock.counter += i;
    proposal.InvalidateCache();
    route_[proposal.Digest()] = p.seq;
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kProposalSend, simulation_.now(), node_,
                 proposal.Digest().Prefix64(), org_nodes_[p.chosen[i]]);
    }
    auto msg = std::make_shared<ProposalMsg>();
    msg->proposal = std::move(proposal);
    msg->deadline = deadline;
    network_.Send(node_, org_nodes_[p.chosen[i]], msg);
  }
  ArmTimeout(p, timing_.endorse_timeout);
}

void Client::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* endorse =
          dynamic_cast<const EndorseReplyMsg*>(delivery.message.get())) {
    HandleEndorseReply(delivery.from, *endorse);
    return;
  }
  if (const auto* commit =
          dynamic_cast<const CommitReplyMsg*>(delivery.message.get())) {
    HandleCommitReply(delivery.from, *commit);
    return;
  }
  if (const auto* busy =
          dynamic_cast<const BusyMsg*>(delivery.message.get())) {
    HandleBusy(delivery.from, *busy);
    return;
  }
}

std::optional<std::size_t> Client::OrgIndexOfNode(sim::NodeId node) const {
  for (std::size_t i = 0; i < org_nodes_.size(); ++i) {
    if (org_nodes_[i] == node) return i;
  }
  return std::nullopt;
}

void Client::HandleEndorseReply(sim::NodeId from, const EndorseReplyMsg& msg) {
  const auto route = route_.find(msg.proposal_digest);
  if (route == route_.end()) return;
  const auto it = pending_.find(route->second);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.phase != Phase::kEndorse) return;

  const auto org_index = OrgIndexOfNode(from);
  if (!org_index) return;
  if (!p.replied.insert(*org_index).second) return;  // duplicate reply

  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kEndorseReply, simulation_.now(), node_,
               msg.proposal_digest.Prefix64(), from);
  }
  if (msg.ok) {
    BreakerSuccess(*org_index);
    if (p.proposal.read_only) {
      if (!p.read_value_set) {
        p.read_value = msg.read_value;
        p.read_value_set = true;
      }
      if (++p.read_ok >= policy_.q) {
        TxOutcome outcome;
        outcome.committed = true;
        outcome.read = true;
        outcome.read_value = p.read_value;
        outcome.latency = simulation_.now() - p.start;
        outcome.phase1 = outcome.latency;
        Finish(p, std::move(outcome));
        return;
      }
    } else {
      // Hash once per distinct write-set. The canonical encoding is
      // injective, so comparing ops vectors directly is equivalent to
      // comparing encoded bytes: the all-honest case groups q replies with
      // q-1 vector compares (no allocation) and a single encode+hash for the
      // first reply. A Byzantine org's divergent write-set never matches an
      // honest group, so it can never inherit the honest digest.
      crypto::Digest ws;
      bool have_ws = false;
      for (const auto& [digest, existing] : p.groups) {
        if (existing.ops == msg.ops) {
          ws = digest;
          have_ws = true;
          break;
        }
      }
      if (!have_ws) ws = WriteSetDigest(msg.ops);
      auto& group = p.groups[ws];
      if (group.ops.empty()) group.ops = msg.ops;
      group.endorsements.push_back(msg.endorsement);
      group.orgs.push_back(*org_index);
      if (group.endorsements.size() >= policy_.q) {
        // Identical write-sets from q organizations: assemble and commit.
        p.phase1_done = simulation_.now();
        // Any org that answered with a different write-set mis-endorsed.
        for (const auto& [digest, other] : p.groups) {
          if (digest == ws) continue;
          for (std::size_t idx : other.orgs) {
            if (timing_.avoid_byzantine) suspected_.insert(idx);
            BreakerFailure(idx);
            ChargeFailure(p, idx);
          }
        }
        StartCommitPhase(p, std::move(group));
        return;
      }
    }
  }

  MaybeFinishEndorseRound(p);
}

void Client::MaybeFinishEndorseRound(Pending& p) {
  if (p.replied.size() < p.chosen.size()) return;
  // Everyone answered (endorsement, error, or Busy) but no q identical
  // write-sets exist: minority write-set groups are the suspects.
  std::size_t best = 0;
  for (const auto& [digest, group] : p.groups) {
    (void)digest;
    best = std::max(best, group.endorsements.size());
  }
  for (const auto& [digest, group] : p.groups) {
    (void)digest;
    if (group.endorsements.size() < best) {
      for (std::size_t idx : group.orgs) {
        if (timing_.avoid_byzantine) suspected_.insert(idx);
        BreakerFailure(idx);
        ChargeFailure(p, idx);
      }
    }
  }
  if (p.attempt < timing_.max_attempts) {
    ++p.attempt;
    ++retry_stats_.retries;
    ScheduleRetry(p);
    return;
  }
  TxOutcome outcome;
  outcome.failure = "endorsement mismatch";
  outcome.latency = simulation_.now() - p.start;
  Finish(p, std::move(outcome));
}

// ---------------------------------------------------------------------------
// Phase 2: commit

void Client::StartCommitPhase(Pending& p, Pending::WsGroup group) {
  p.phase = Phase::kCommit;
  p.receipt_orgs.clear();
  p.commit_busy.clear();
  p.busy_retry_hint = 0;

  std::vector<crdt::Operation> ops = std::move(group.ops);
  if (byzantine_.active && byzantine_.tamper_writeset && !ops.empty()) {
    // Byzantine: tamper with the endorsed write-set; every organization must
    // detect the signature mismatch and reject.
    if (ops[0].value.IsInt()) {
      ops[0].value = crdt::Value(ops[0].value.AsInt() * 31 + 7);
    } else {
      ops[0].value = crdt::Value(std::string("tampered"));
    }
  }
  auto tx = Transaction::Assemble(p.proposal, std::move(ops),
                                  std::move(group.endorsements), key_);
  p.tx = tx;
  route_[tx->id] = p.seq;
  if (obs::Tracer* t = simulation_.tracer()) {
    // Links the submit-phase key (proposal digest) to the commit-phase key
    // (transaction id) — EventsForTx() stitches a tx's timeline through it.
    t->Instant(obs::EventKind::kWriteSetMatch, simulation_.now(), node_,
               tx->id.Prefix64(), p.proposal.Digest().Prefix64());
  }

  if (byzantine_.active && byzantine_.no_commit) {
    // Byzantine fault (1): never sends the transaction for commit. No
    // lasting side effects on any organization.
    TxOutcome outcome;
    outcome.failure = "byzantine client withheld commit";
    outcome.latency = simulation_.now() - p.start;
    Finish(p, std::move(outcome));
    return;
  }

  // Commit to the organizations that endorsed the winning write-set (they
  // just proved responsive); gossip spreads the transaction to the rest.
  p.commit_targets = group.orgs;
  if (byzantine_.active && byzantine_.partial_commit) {
    // Byzantine fault (2): commit reaches one organization only; gossip must
    // still spread it everywhere (tested by the SEC integration tests).
    p.commit_targets.resize(1);
  }
  SendCommits(p);
}

void Client::SendCommits(Pending& p) {
  // One immutable message serves every commit target (receivers only read);
  // the simulated wire cost is still charged per link.
  std::shared_ptr<CommitMsg> shared;
  for (std::size_t idx : p.commit_targets) {
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kCommitSend, simulation_.now(), node_,
                 p.tx->id.Prefix64(), org_nodes_[idx]);
    }
    if (!shared) {
      shared = std::make_shared<CommitMsg>();
      shared->tx = p.tx;
    }
    network_.Send(node_, org_nodes_[idx], shared);
  }
  ArmTimeout(p, timing_.commit_timeout);
}

void Client::ResendCommit(Pending& p) {
  ++retry_stats_.commit_resends;
  p.commit_busy.clear();
  p.busy_retry_hint = 0;
  const std::size_t have = p.receipt_orgs.size();
  const std::size_t needed = policy_.q > have ? policy_.q - have : 1;

  // Failover: the assembled transaction carries its endorsements, so *any*
  // organization can validate and commit it — the spare n-q capacity backs
  // up the original commit targets. Prefer organizations not yet charged
  // with a failure for this transaction.
  std::vector<std::size_t> fresh, tried;
  for (std::size_t i = 0; i < org_nodes_.size(); ++i) {
    if (p.receipt_orgs.contains(i)) continue;
    if (timing_.breaker_threshold > 0 &&
        breaker_state(i) == BreakerState::kOpen) {
      continue;
    }
    (p.failure_charges.contains(i) ? tried : fresh).push_back(i);
  }
  std::vector<std::size_t> targets;
  for (const std::vector<std::size_t>* tier : {&fresh, &tried}) {
    if (targets.size() >= needed) break;
    const std::size_t take = std::min(needed - targets.size(), tier->size());
    for (std::size_t idx : rng_.SampleDistinct(tier->size(), take)) {
      targets.push_back((*tier)[idx]);
    }
  }
  if (targets.empty()) {
    // Every candidate is breaker-open: last resort, ask them all anyway.
    for (std::size_t i = 0; i < org_nodes_.size(); ++i) {
      if (!p.receipt_orgs.contains(i)) targets.push_back(i);
    }
  }
  if (byzantine_.active && byzantine_.partial_commit && targets.size() > 1) {
    targets.resize(1);
  }
  p.commit_targets = std::move(targets);
  SendCommits(p);
}

void Client::HandleCommitReply(sim::NodeId from, const CommitReplyMsg& msg) {
  const auto route = route_.find(msg.receipt.tx_id);
  if (route == route_.end()) return;
  const auto it = pending_.find(route->second);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.phase != Phase::kCommit) return;
  if (!msg.receipt.Verify(pki_)) return;  // forged receipt

  if (!msg.receipt.valid) {
    // A rejection is deterministic (signature validation): retrying cannot
    // help, the transaction itself is invalid.
    TxOutcome outcome;
    outcome.rejected = true;
    outcome.failure = "rejected by organization";
    outcome.latency = simulation_.now() - p.start;
    Finish(p, std::move(outcome));
    return;
  }
  const auto org_index = OrgIndexOfNode(from);
  if (!org_index) return;
  BreakerSuccess(*org_index);
  if (!p.receipt_orgs.insert(*org_index).second) return;  // duplicate receipt

  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kReceipt, simulation_.now(), node_,
               msg.receipt.tx_id.Prefix64(), from);
  }
  const std::size_t needed =
      (byzantine_.active && byzantine_.partial_commit) ? 1 : policy_.q;
  if (p.receipt_orgs.size() >= needed) {
    TxOutcome outcome;
    outcome.committed = true;
    outcome.latency = simulation_.now() - p.start;
    outcome.phase1 = p.phase1_done - p.start;
    outcome.phase2 = simulation_.now() - p.phase1_done;
    Finish(p, std::move(outcome));
  }
}

void Client::HandleBusy(sim::NodeId from, const BusyMsg& msg) {
  const auto route = route_.find(msg.ref);
  if (route == route_.end()) return;
  const auto it = pending_.find(route->second);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  const auto org_index = OrgIndexOfNode(from);
  if (!org_index) return;

  ++retry_stats_.busy_received;
  p.busy_retry_hint = std::max(p.busy_retry_hint, msg.retry_after);
  BreakerFailure(*org_index);
  ChargeFailure(p, *org_index);

  if (msg.endorse_phase) {
    if (p.phase != Phase::kEndorse) return;
    if (!p.replied.insert(*org_index).second) return;
    MaybeFinishEndorseRound(p);
    return;
  }
  if (p.phase != Phase::kCommit) return;
  p.commit_busy.insert(*org_index);
  // Once every outstanding commit target has shed the request, retry after
  // the backoff instead of sitting out the full commit timeout.
  for (std::size_t idx : p.commit_targets) {
    if (!p.receipt_orgs.contains(idx) && !p.commit_busy.contains(idx)) {
      return;  // someone may still answer
    }
  }
  if (p.attempt < timing_.max_attempts) {
    ++p.attempt;
    ++retry_stats_.retries;
    ScheduleRetry(p);
  }
  // Out of attempts: the armed commit timeout will fail the transaction.
}

// ---------------------------------------------------------------------------

void Client::OnTimeout(std::uint64_t seq, std::uint64_t generation) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.timeout_generation != generation) return;  // superseded

  if (p.phase == Phase::kEndorse) {
    // Whoever did not reply in time is suspect.
    for (std::size_t idx : p.chosen) {
      if (p.replied.contains(idx)) continue;
      if (timing_.avoid_byzantine) suspected_.insert(idx);
      BreakerFailure(idx);
      ChargeFailure(p, idx);
    }
  } else {
    for (std::size_t idx : p.commit_targets) {
      if (p.receipt_orgs.contains(idx)) continue;
      BreakerFailure(idx);
      ChargeFailure(p, idx);
    }
  }
  if (p.attempt < timing_.max_attempts) {
    ++p.attempt;
    ++retry_stats_.retries;
    // Endorse-phase retries re-run selection from scratch; commit-phase
    // retries re-send the assembled transaction (duplicates are answered
    // from the organizations' commit index, never re-applied).
    ScheduleRetry(p);
    return;
  }
  TxOutcome outcome;
  outcome.failure = p.phase == Phase::kEndorse ? "endorsement timeout"
                                               : "commit timeout";
  outcome.latency = simulation_.now() - p.start;
  Finish(p, std::move(outcome));
}

void Client::Finish(Pending& p, TxOutcome outcome) {
  if (obs::Tracer* t = simulation_.tracer()) {
    obs::TxStatus status = obs::TxStatus::kFailed;
    if (outcome.committed) {
      status = outcome.read ? obs::TxStatus::kRead : obs::TxStatus::kCommitted;
    } else if (outcome.rejected) {
      status = obs::TxStatus::kRejected;
    }
    const std::uint64_t key =
        p.tx ? p.tx->id.Prefix64() : p.proposal.Digest().Prefix64();
    t->Span(obs::EventKind::kTxOutcome, p.start, p.start + outcome.latency,
            node_, key, static_cast<std::uint64_t>(status));
  }
  // Erase routing entries for this pending transaction.
  std::erase_if(route_, [&p](const auto& entry) {
    return entry.second == p.seq;
  });
  if (outcome.committed) last_backoff_ = 0;  // healthy again: reset jitter
  TxCallback callback = std::move(p.callback);
  const std::uint64_t seq = p.seq;
  pending_.erase(seq);
  if (callback) callback(outcome);
}

}  // namespace orderless::core
