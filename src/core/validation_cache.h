// Network-wide table of transaction validation verdicts (host-side).
//
// Every organization validates every committed transaction (paper §1), and
// ValidateTransaction is a pure function of (transaction bytes, PKI,
// organization key set, endorsement policy). One simulated network holds the
// last three fixed, so once any organization has validated a transaction the
// others can reuse its verdict. Each organization is still charged its
// simulated validate-service time — only the host-side hashing is shared —
// so simulated results never depend on whether a lookup hit.
//
// Byzantine safety: entries are keyed by transaction id, which is
// attacker-chosen on a forged transaction. A lookup returns the stored
// verdict only when the caller's sealed encoding is the stored buffer (the
// zero-copy case: one object is shared across the cluster) or byte-equal to
// it (a decoded copy). A byte-differing body under a known id is validated in
// full and never replaces the stored entry.
//
// Threading: every org lane calls Validate directly, so lookups and inserts
// share one mutex and ValidateTransaction runs outside it. Two lanes that
// miss the same id at the same moment may both validate it; both compute the
// same verdict and only the first insert is kept. Callers must pass sealed
// transactions (Transaction::Seal) so the encoding read here never writes.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "core/policy.h"
#include "core/transaction.h"
#include "crypto/pki.h"

namespace orderless::core {

class VerdictTable {
 public:
  /// Entries kept; the oldest insert is evicted first.
  static constexpr std::size_t kCapacity = 8192;

  /// Every organization sharing one table must share `pki`, the full
  /// organization key directory and the endorsement policy (true for every
  /// org of one simulated network). `pki` must outlive the table.
  VerdictTable(const crypto::Pki& pki, std::set<crypto::KeyId> org_keys,
               EndorsementPolicy policy);

  /// Exactly what ValidateTransaction(*tx, pki, org_keys, policy) returns:
  /// the stored verdict for a same-body hit, else a full validation whose
  /// verdict is stored if the id is still absent.
  TxVerdict Validate(const std::shared_ptr<const Transaction>& tx);

  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const Bytes> body;  // the sealed encoding that earned it
    TxVerdict verdict = TxVerdict::kValid;
  };

  const crypto::Pki& pki_;
  const std::set<crypto::KeyId> org_keys_;
  const EndorsementPolicy policy_;

  mutable std::mutex mutex_;
  std::unordered_map<crypto::Digest, Entry, crypto::DigestHash> entries_;
  std::deque<crypto::Digest> insert_order_;  // FIFO eviction
};

}  // namespace orderless::core
