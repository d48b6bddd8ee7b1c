// Protocol data types for the two-phase execute–commit protocol (paper §4):
// proposals, endorsements, transactions and receipts, plus the signature and
// validation rules from Definitions 3.2/3.3.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "clock/logical_clock.h"
#include "core/policy.h"
#include "crdt/op.h"
#include "crypto/pki.h"

namespace orderless::core {

/// Phase-1 message content: what the client asks organizations to execute.
///
/// Digest() and WireSize() are computed from one canonical encoding and
/// cached (the cache travels with copies, so the client hashes once and
/// every organization handling a copy of the proposal reuses it). The cache
/// is host-side only. Invariant: a proposal that is
/// mutated in place *after* Digest()/WireSize() was called must call
/// InvalidateCache(), or the stale digest will be reused (the Byzantine
/// inconsistent-clocks path in client.cpp is the one mutation site).
struct Proposal {
  crypto::KeyId client = 0;
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;
  clk::OpClock clock;       // the client's Lamport clock for this proposal
  bool read_only = false;   // read API calls produce no operations

  void Encode(codec::Writer& w) const;
  static std::optional<Proposal> Decode(codec::Reader& r);
  crypto::Digest Digest() const;
  std::size_t WireSize() const;
  void InvalidateCache() const { cached_ = false; }

 private:
  mutable bool cached_ = false;
  mutable crypto::Digest cached_digest_{};
  mutable std::size_t cached_wire_size_ = 0;
};

/// Digest of a write-set (the thing organizations hash and sign).
crypto::Digest WriteSetDigest(const std::vector<crdt::Operation>& ops);

/// The message an endorsement signature covers: binds the write-set to the
/// proposal that produced it.
crypto::Digest EndorsementMessage(const crypto::Digest& proposal_digest,
                                  const crypto::Digest& writeset_digest);

/// One organization's endorsement of a proposal's write-set.
struct Endorsement {
  crypto::KeyId org = 0;
  crypto::Signature signature;
};

/// Signature contexts (domain separation).
inline constexpr std::string_view kEndorseContext = "orderless.endorse";
inline constexpr std::string_view kTxContext = "orderless.tx";
inline constexpr std::string_view kReceiptContext = "orderless.receipt";

/// Phase-2 transaction: proposal + endorsed write-set + endorsements +
/// client signature.
///
/// A transaction is immutable once Assemble()/Decode() returns (it flows
/// through the system as shared_ptr<const Transaction>), so its canonical
/// encoding, proposal digest and write-set digest are computed lazily once
/// and cached. Because the same object is shared zero-copy through
/// sim::Network by every simulated organization, the first computation
/// serves the whole cluster — the n-fold re-encode/re-hash the seed paid
/// per validation disappears. Host-side only.
///
/// Under parallel execution several org lanes read one object's caches
/// concurrently, so every object that is shared across lanes must be
/// Seal()ed by its only holder first: Assemble() does it for client-built
/// transactions, and recovery does it for bodies reloaded from the ledger.
/// Decode() leaves the caches empty (a decoded copy starts cache-free).
struct Transaction {
  Proposal proposal;
  std::vector<crdt::Operation> ops;
  std::vector<Endorsement> endorsements;
  crypto::Signature client_signature;
  crypto::Digest id;  // hash(proposal digest ‖ write-set digest)

  /// Builds and signs the transaction exactly as an honest client would.
  static std::shared_ptr<Transaction> Assemble(
      Proposal proposal, std::vector<crdt::Operation> ops,
      std::vector<Endorsement> endorsements,
      const crypto::PrivateKey& client_key);

  static crypto::Digest ComputeId(const crypto::Digest& proposal_digest,
                                  const crypto::Digest& writeset_digest);

  /// Fills every lazily-computed cache (encoding, digests, wire size), after
  /// which reads of this object never write. Call while holding the only
  /// reference, before the object is shared across simulation lanes.
  void Seal() const;

  /// Canonical binary form; used to persist committed transaction bodies so
  /// a restarted organization can keep serving gossip pulls and anti-entropy
  /// syncs. Decode performs no validation — run ValidateTransaction.
  /// Encode appends the cached canonical encoding (EncodedBody()).
  void Encode(codec::Writer& w) const;
  static std::shared_ptr<Transaction> Decode(codec::Reader& r);

  /// The cached canonical encoding (computed on first use). The view stays
  /// valid for the life of the transaction object.
  BytesView EncodedBody() const;

  /// The same canonical encoding as a refcounted buffer. The verdict table
  /// keeps it beside each verdict, so a later lookup with the same buffer
  /// hits on pointer equality alone. The buffer outlives the transaction if
  /// the holder keeps it longer.
  std::shared_ptr<const Bytes> SharedEncoding() const;

  /// Cached digest of the embedded proposal / write-set — what
  /// ValidateTransaction recomputed from scratch per organization before.
  crypto::Digest ProposalDigest() const;
  crypto::Digest OpsDigest() const;

  /// Simulated network size, recorded by the encode behind EncodedBody().
  std::size_t WireSize() const;

  /// Voids every cached derivation (encoding, digests, wire size). Only for
  /// code that deliberately mutates a transaction in place after assembly —
  /// i.e. tests modelling tampering; protocol code never mutates one.
  void InvalidateCache() const {
    cached_encoding_.reset();
    ops_digest_cached_ = false;
    proposal.InvalidateCache();
  }

 private:
  // Set together with cached_encoding_.
  mutable std::size_t cached_wire_size_ = 0;
  // Refcounted so SharedEncoding() can hand the buffer to the verdict table
  // without copying; EncodedBody() views into the same storage.
  mutable std::shared_ptr<const Bytes> cached_encoding_;
  mutable bool ops_digest_cached_ = false;
  mutable crypto::Digest cached_ops_digest_{};
};

/// Why a transaction was accepted or rejected.
enum class TxVerdict : std::uint8_t {
  kValid = 0,
  kBadClientSignature,
  kInsufficientEndorsements,
  kUnknownEndorser,
  kDuplicateEndorser,
  kBadEndorsementSignature,
  kIdMismatch,
};

std::string_view TxVerdictName(TxVerdict v);

/// Definition 3.2 signature validity: the client signed the transaction and
/// at least q distinct known organizations endorsed the exact write-set.
TxVerdict ValidateTransaction(const Transaction& tx, const crypto::Pki& pki,
                              const std::set<crypto::KeyId>& organization_keys,
                              const EndorsementPolicy& policy);

/// Signed commit receipt (RCPT) or rejection (REJ).
struct Receipt {
  crypto::Digest tx_id;
  bool valid = false;
  crypto::KeyId org = 0;
  crypto::Digest block_hash;
  crypto::Signature signature;

  static Receipt Make(const crypto::Digest& tx_id, bool valid,
                      const crypto::Digest& block_hash,
                      const crypto::PrivateKey& org_key);
  bool Verify(const crypto::Pki& pki) const;

 private:
  static crypto::Digest SignedMessage(const crypto::Digest& tx_id, bool valid,
                                      const crypto::Digest& block_hash);
};

}  // namespace orderless::core
