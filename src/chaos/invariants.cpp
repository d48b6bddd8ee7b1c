#include "chaos/invariants.h"

#include <sstream>

#include "crdt/object.h"

namespace orderless::chaos {

namespace {
constexpr std::size_t kMaxStoredViolations = 32;
}  // namespace

InvariantChecker::InvariantChecker(harness::OrderlessNet& net,
                                   const Scenario& scenario)
    : net_(net), scenario_(scenario) {
  for (std::size_t i = 0; i < net_.org_count(); ++i) {
    org_key_set_.insert(net_.org(i).key());
  }
}

void InvariantChecker::InstallObservers() {
  for (std::size_t i = 0; i < net_.org_count(); ++i) {
    if (!net_.OrgRunning(i)) continue;
    net_.org(i).SetCommitObserver(
        [this, i](const core::Transaction& tx, core::TxVerdict verdict) {
          ObserveCommit(i, tx, verdict);
        });
  }
}

void InvariantChecker::MarkOrgEverByzantine(std::size_t org_index) {
  ever_byzantine_orgs_.insert(org_index);
  ever_byzantine_org_keys_.insert(net_.org(org_index).key());
}

void InvariantChecker::MarkClientEverByzantine(std::size_t client_index) {
  ever_byzantine_clients_.insert(client_index);
}

std::vector<std::size_t> InvariantChecker::HonestOrgs() const {
  std::vector<std::size_t> honest;
  for (std::size_t i = 0; i < net_.org_count(); ++i) {
    if (!ever_byzantine_orgs_.contains(i)) honest.push_back(i);
  }
  return honest;
}

void InvariantChecker::AddViolation(std::string invariant, std::string detail,
                                    std::uint64_t tx) {
  const std::lock_guard<std::mutex> lock(mutex_);
  AddViolationLocked(std::move(invariant), std::move(detail), tx);
}

void InvariantChecker::AddViolationLocked(std::string invariant,
                                          std::string detail,
                                          std::uint64_t tx) {
  ++violations_total_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back({std::move(invariant), std::move(detail), tx});
  }
}

void InvariantChecker::ObserveCommit(std::size_t org_index,
                                     const core::Transaction& tx,
                                     core::TxVerdict verdict) {
  // Observers fire on org lanes, concurrently under `--threads N`; hold the
  // checker's mutex for the whole observation. Revalidation under the lock
  // is fine — invariants only run inside chaos tests.
  const std::lock_guard<std::mutex> lock(mutex_);
  ++commits_observed_;
  const bool valid = verdict == core::TxVerdict::kValid;

  // Commit-side validation is deterministic over the transaction bytes, so
  // every organization must reach the same verdict for the same id.
  const auto [it, inserted] = first_verdict_.emplace(tx.id, valid);
  if (!inserted && it->second != valid) {
    AddViolationLocked("verdict-divergence",
                 "tx " + tx.id.Hex().substr(0, 12) + " valid=" +
                     (valid ? "1" : "0") + " at org " +
                     std::to_string(org_index) +
                     " contradicts an earlier commit",
                 tx.id.Prefix64());
  }

  if (!valid) return;

  // Independent re-validation: a transaction an organization committed as
  // valid must really carry q distinct, correctly-signed endorsements over
  // exactly this write-set (Definition 3.2). Catches any commit that slipped
  // through with too few endorsements or a tampered write-set.
  const core::TxVerdict recheck = core::ValidateTransaction(
      tx, net_.pki(), org_key_set_, net_.config().policy);
  if (recheck != core::TxVerdict::kValid) {
    AddViolationLocked("invalid-commit",
                 "org " + std::to_string(org_index) + " committed tx " +
                     tx.id.Hex().substr(0, 12) + " as valid but revalidation says " +
                     std::string(core::TxVerdictName(recheck)),
                 tx.id.Prefix64());
  }

  // Safety (Theorem 8.1): with q >= f+1 every valid quorum intersects the
  // honest organizations, so a commit endorsed exclusively by organizations
  // that were ever Byzantine means the policy's safety bound was violated.
  if (!ever_byzantine_org_keys_.empty()) {
    bool has_honest_endorser = false;
    for (const core::Endorsement& endorsement : tx.endorsements) {
      if (!ever_byzantine_org_keys_.contains(endorsement.org)) {
        has_honest_endorser = true;
        break;
      }
    }
    if (!has_honest_endorser) {
      AddViolationLocked("byzantine-quorum",
                   "tx " + tx.id.Hex().substr(0, 12) + " committed at org " +
                       std::to_string(org_index) +
                       " with every endorsement from a Byzantine organization"
                       " (policy " +
                       net_.config().policy.ToString() + ")",
                   tx.id.Prefix64());
    }
  }
}

void InvariantChecker::CheckChains() {
  for (std::size_t i = 0; i < net_.org_count(); ++i) {
    if (!net_.OrgRunning(i)) continue;
    const auto& log = net_.org(i).ledger().log();
    const std::size_t bad = log.FirstInvalidBlock();
    if (bad != log.size()) {
      AddViolation("hash-chain",
                   "org " + std::to_string(i) + " block " +
                       std::to_string(bad) + " fails verification");
    }
  }
}

void InvariantChecker::CheckQuiescent(const std::vector<std::string>& objects) {
  CheckChains();
  for (std::size_t i = 0; i < net_.org_count(); ++i) {
    if (!net_.OrgRunning(i)) {
      AddViolation("org-down-at-quiescence",
                   "org " + std::to_string(i) +
                       " not running when quiescent checks fired");
    }
  }

  const std::vector<std::size_t> honest = HonestOrgs();
  if (honest.size() < 2) return;

  // Theorem 8.2: strong eventual consistency — byte-identical object state
  // at every honest organization.
  for (const std::string& object : objects) {
    if (!net_.StateConvergedAmong(object, honest)) {
      AddViolation("sec-divergence",
                   "honest organizations disagree on object " + object);
    }
  }

  // Eventual delivery: every honest organization committed the same set of
  // valid transactions (count is a cheap proxy; sec-divergence catches
  // content differences). Checkpoint catch-up counts valid txs adopted from
  // snapshot coverage, whose bodies were never locally committed, so the
  // comparison uses the effective count (ledger + checkpoint coverage).
  const std::uint64_t reference =
      net_.org(honest[0]).effective_committed_valid();
  for (std::size_t k = 1; k < honest.size(); ++k) {
    const std::uint64_t count =
        net_.org(honest[k]).effective_committed_valid();
    if (count != reference) {
      AddViolation("commit-count-divergence",
                   "org " + std::to_string(honest[k]) + " committed " +
                       std::to_string(count) + " valid txs, org " +
                       std::to_string(honest[0]) + " committed " +
                       std::to_string(reference));
    }
  }

  // Checkpoint integrity: every sealed or installed checkpoint held at
  // quiescence must still verify — canonical re-encode reproduces the
  // digest, the signature checks out against the origin's key, and the
  // origin is a known organization.
  if (scenario_.checkpoints) {
    for (std::size_t i = 0; i < net_.org_count(); ++i) {
      if (!net_.OrgRunning(i)) continue;
      for (const auto& [slot, ckpt] :
           {std::pair<const char*, std::shared_ptr<const core::Checkpoint>>{
                "sealed", net_.org(i).sealed_checkpoint()},
            {"installed", net_.org(i).installed_checkpoint()}}) {
        if (ckpt == nullptr) continue;
        if (!ckpt->Verify(net_.pki(), org_key_set_)) {
          AddViolation("checkpoint-integrity",
                       "org " + std::to_string(i) + " holds a " + slot +
                           " checkpoint that fails digest/signature "
                           "verification");
        }
      }
    }
  }

  // Quorum attestation (q-of-n install trust): every checkpoint an honest
  // organization promoted or installed must carry q valid attestations from
  // distinct organization keys over exactly its digest — a forged or
  // equivocated digest can gather at most f < q signatures, so surviving
  // evidence proves no honest org ever trusted one. The installed snapshot
  // must also be dominated by the org's own converged state (merging it in
  // changes nothing): an installed forgery that somehow carried quorum
  // would surface here as a state delta.
  if (scenario_.checkpoints) {
    const std::uint32_t q = net_.config().policy.q;
    for (std::size_t i : honest) {
      if (!net_.OrgRunning(i)) continue;
      const auto& org = net_.org(i);
      for (const auto& [slot, ckpt, set] :
           {std::tuple<const char*, std::shared_ptr<const core::Checkpoint>,
                       const core::AttestationSet*>{
                "attested", org.attested_checkpoint(), &org.attested_set()},
            {"installed", org.installed_checkpoint(), &org.installed_set()}}) {
        if (ckpt == nullptr) continue;
        if (set->ckpt_digest != ckpt->digest) {
          AddViolation("checkpoint-attestation",
                       "org " + std::to_string(i) + " holds a " + slot +
                           " checkpoint whose attestation set covers a "
                           "different digest");
          continue;
        }
        if (!set->HasQuorum(net_.pki(), org_key_set_, q)) {
          AddViolation(
              "checkpoint-attestation",
              "org " + std::to_string(i) + " holds a " + slot +
                  " checkpoint with only " +
                  std::to_string(set->CountValid(net_.pki(), org_key_set_)) +
                  " valid attestations (quorum " + std::to_string(q) + ")");
        }
      }
      const auto& installed = org.installed_checkpoint();
      if (installed == nullptr) continue;
      for (const auto& [object_id, state] : installed->objects) {
        const Bytes ours = org.ledger().cache().EncodeObjectState(object_id);
        auto mine =
            ours.empty() ? nullptr
                         : crdt::CrdtObject::DecodeState(object_id,
                                                         BytesView(ours));
        auto theirs = crdt::CrdtObject::DecodeState(object_id,
                                                    BytesView(state));
        bool dominated = mine != nullptr && theirs != nullptr;
        if (dominated) {
          mine->MergeState(*theirs);
          dominated = mine->EncodeState() == ours;
        }
        if (!dominated) {
          AddViolation("checkpoint-attestation",
                       "org " + std::to_string(i) +
                           "'s installed checkpoint carries object " +
                           object_id +
                           " state not dominated by the org's own state");
        }
      }
    }
  }
}

std::string InvariantChecker::Report() const {
  std::ostringstream out;
  for (const Violation& v : violations_) {
    out << "  VIOLATION [" << v.invariant << "] " << v.detail << "\n";
  }
  if (violations_total_ > violations_.size()) {
    out << "  (+" << violations_total_ - violations_.size()
        << " further violations suppressed)\n";
  }
  return out.str();
}

}  // namespace orderless::chaos
