// Wire messages of the OrderlessChain protocol (Fig. 1 steps 1–5).
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/transaction.h"
#include "sim/network.h"

namespace orderless::core {

/// Step 1: client → organizations.
struct ProposalMsg final : sim::Message {
  Proposal proposal;
  /// Client-side endorsement deadline (absolute sim time, 0 = none). Not
  /// part of the signed proposal — transport metadata that lets an
  /// overloaded organization shed work its client has already given up on.
  sim::SimTime deadline = 0;
  std::size_t WireSize() const override { return proposal.WireSize() + 48; }
};

/// Step 2: organization → client (endorsement or execution error).
struct EndorseReplyMsg final : sim::Message {
  crypto::Digest proposal_digest;
  bool ok = false;
  std::string error;
  std::vector<crdt::Operation> ops;  // the endorsed write-set
  Endorsement endorsement;
  crdt::Value read_value;  // read API result for read-only proposals

  std::size_t WireSize() const override {
    if (cached_size_ == 0) {
      codec::Writer w;
      crdt::EncodeOperations(ops, w);
      cached_size_ = 96 + w.size() + error.size();
    }
    return cached_size_;
  }

 private:
  mutable std::size_t cached_size_ = 0;
};

/// Step 3: client → organizations.
struct CommitMsg final : sim::Message {
  std::shared_ptr<const Transaction> tx;
  std::size_t WireSize() const override { return tx->WireSize() + 16; }
};

/// Step 4: organization → client (receipt or rejection).
struct CommitReplyMsg final : sim::Message {
  Receipt receipt;
  std::size_t WireSize() const override { return 144; }
};

/// Backpressure: the organization shed the request at admission instead of
/// queueing it. `retry_after` is the sender's backlog estimate — a hint for
/// the client's backoff, never a promise of capacity.
struct BusyMsg final : sim::Message {
  crypto::Digest ref;          // proposal digest (phase 1) or tx id (phase 2)
  bool endorse_phase = true;
  sim::SimTime retry_after = 0;
  std::size_t WireSize() const override { return 64; }
};

/// Anti-entropy (organization → organization): a compact summary of the
/// sender's committed-transaction set. Peers whose summary differs request a
/// sync, which repairs divergence that push gossip missed (e.g. after a
/// network partition heals).
struct SummaryMsg final : sim::Message {
  std::uint64_t tx_count = 0;
  std::uint64_t tx_xor = 0;  // XOR of committed tx-id prefixes
  std::size_t WireSize() const override { return 64; }
};

/// Anti-entropy: asks the peer to push what the requester is missing. When
/// checkpointing is enabled the peer answers with its latest sealed
/// checkpoint (unless `have_ckpt` says the requester holds it already) plus
/// only the transactions committed after that frontier — O(delta) instead of
/// its full committed set.
struct SyncRequestMsg final : sim::Message {
  /// Digest of the best checkpoint the requester already holds (zero =
  /// none); lets the responder skip re-shipping a snapshot the requester
  /// has.
  crypto::Digest have_ckpt;
  std::size_t WireSize() const override { return 80; }
};

/// Snapshot transfer: the responder's best quorum-attested checkpoint and
/// the q-of-n attestation set over its digest. The receiver verifies digest
/// + signature, rejects any checkpoint whose set lacks a quorum of valid
/// distinct organization signatures, CRDT-merges the object states, and
/// adopts the covered-transaction index; the delta arrives as a normal
/// GossipMsg.
struct CheckpointMsg final : sim::Message {
  std::shared_ptr<const Checkpoint> ckpt;
  AttestationSet attestations;
  std::size_t WireSize() const override {
    return 16 + ckpt->WireSizeBytes() + attestations.WireSizeBytes();
  }
};

/// Attestation round-trip, request half: after sealing (and until a quorum
/// forms) the origin broadcasts the full checkpoint to every peer. A peer
/// that can verify the seal AND reproduce the digest's claims against its
/// own converged CRDT state replies with a CheckpointAttestMsg.
struct CheckpointAnnounceMsg final : sim::Message {
  std::shared_ptr<const Checkpoint> ckpt;
  std::size_t WireSize() const override { return 16 + ckpt->WireSizeBytes(); }
};

/// Attestation round-trip, reply half: one organization's signature over the
/// announced checkpoint's digest under kCheckpointAttestContext.
struct CheckpointAttestMsg final : sim::Message {
  crypto::Digest ckpt_digest;
  CheckpointAttestation attestation;
  std::size_t WireSize() const override { return 16 + 32 + 40; }
};

/// Step 5a: organization → organization. Lazy-push gossip: advertise the
/// ids of recently committed transactions; peers pull what they miss. This
/// keeps gossip traffic proportional to the number of *missing*
/// transactions, so the Gossip Ratio control variable stays cheap (the
/// paper observes no throughput/latency effect from ratios 1…15, which a
/// full-transaction push could not achieve at WAN bandwidth).
struct GossipAdvertMsg final : sim::Message {
  std::vector<crypto::Digest> ids;
  std::size_t WireSize() const override { return 32 + ids.size() * 36; }
};

/// Step 5b: request for the advertised transactions a peer does not have.
struct GossipPullMsg final : sim::Message {
  std::vector<crypto::Digest> ids;
  std::size_t WireSize() const override { return 32 + ids.size() * 36; }
};

/// Step 5c: organization → organization (also used for anti-entropy syncs).
struct GossipMsg final : sim::Message {
  std::vector<std::shared_ptr<const Transaction>> txs;
  std::size_t WireSize() const override {
    std::size_t size = 32;
    for (const auto& tx : txs) size += tx->WireSize();
    return size;
  }
};

}  // namespace orderless::core
