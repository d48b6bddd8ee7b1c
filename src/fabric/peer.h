// Fabric-style peer: endorses proposals by executing contracts over its
// world state, and validates+commits ordered blocks. Validation is either
// MVCC (Fabric) or state-based CRDT merge (FabricCRDT, paper [54]).
#pragma once

#include <memory>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "fabric/messages.h"
#include "sim/processor.h"

namespace orderless::fabric {

enum class ValidationMode {
  kMvcc,       // Fabric: reject on read-version mismatch
  kCrdtMerge,  // FabricCRDT: merge JSON-CRDT values, nothing is rejected
};

/// A peer's service times are rows of the cost table (sim/costs.h).
struct PeerConfig {
  /// MVCC read-set validation is lockless ("Lockless Transaction Isolation
  /// in Hyperledger Fabric"): the committer checks a block's read sets
  /// against the version table without taking the state lock, so the
  /// checks spread across the peer's cores; writes still apply serially in
  /// block order, and verdicts equal the serial committer's (two-phase
  /// validate-then-apply with a block-local write shadow).
  ValidationMode mode = ValidationMode::kMvcc;
  /// Index of the peer that runs the client event service.
  bool emits_events = false;
};

class Peer {
 public:
  Peer(sim::Simulation& simulation, sim::Network& network, sim::NodeId node,
       crypto::PrivateKey key, const FabricContractRegistry& contracts,
       PeerConfig config);

  void Start();

  sim::NodeId node() const { return node_; }
  crypto::KeyId key() const { return key_.id(); }
  const VersionedStore& state() const { return state_; }
  std::uint64_t committed_valid() const { return committed_valid_; }
  std::uint64_t committed_invalid() const { return committed_invalid_; }

  /// Phase instrumentation backing Table 3.
  double AvgEndorseMs() const {
    return endorse_count_ == 0 ? 0.0
                               : endorse_time_us_ / 1000.0 / endorse_count_;
  }
  double AvgConsensusMs() const {
    return consensus_count_ == 0
               ? 0.0
               : consensus_time_us_ / 1000.0 / consensus_count_;
  }
  double AvgCommitMs() const {
    return commit_count_ == 0 ? 0.0
                              : commit_time_us_ / 1000.0 / commit_count_;
  }

 private:
  void OnDelivery(const sim::Delivery& delivery);
  void HandleProposal(sim::NodeId from, const FabProposal& proposal);
  void HandleBlock(std::shared_ptr<const FabBlock> block);
  /// Validates and commits `block`, which arrived at `arrival`.
  void CommitBlock(const FabBlock& block, sim::SimTime arrival);
  /// Applies one FabricCRDT merge transaction (never rejected).
  bool ApplyTransaction(const FabTransaction& tx);

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  crypto::PrivateKey key_;
  const FabricContractRegistry& contracts_;
  PeerConfig config_;
  sim::Processor cpu_;

  VersionedStore state_;
  std::uint64_t committed_valid_ = 0;
  std::uint64_t committed_invalid_ = 0;
  std::uint64_t endorse_count_ = 0;
  std::uint64_t endorse_time_us_ = 0;
  std::uint64_t consensus_count_ = 0;
  std::uint64_t consensus_time_us_ = 0;
  std::uint64_t commit_count_ = 0;
  std::uint64_t commit_time_us_ = 0;
};

}  // namespace orderless::fabric
