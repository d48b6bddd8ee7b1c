// Wire messages of the Fabric-style execute-order-validate pipeline.
#pragma once

#include <memory>
#include <vector>

#include "crypto/pki.h"
#include "fabric/contract.h"
#include "sim/network.h"

namespace orderless::fabric {

/// A client's endorsement request.
struct FabProposal {
  crypto::KeyId client = 0;
  std::uint64_t nonce = 0;  // unique per client submission
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;

  std::size_t WireSize() const;
  crypto::Digest Digest() const;
};

struct FabProposalMsg final : sim::Message {
  FabProposal proposal;
  std::size_t WireSize() const override { return proposal.WireSize() + 48; }
};

struct FabEndorseReplyMsg final : sim::Message {
  crypto::Digest proposal_digest;
  bool ok = false;
  std::string error;
  RwSet rwset;
  crypto::KeyId org = 0;
  crypto::Signature signature;  // over (proposal digest ‖ rwset digest)
  crdt::Value read_value;

  std::size_t WireSize() const override { return 96 + rwset.WireSize(); }
};

/// An endorsed transaction on its way to / from the ordering service.
struct FabTransaction {
  crypto::Digest id;
  crypto::KeyId client = 0;
  sim::NodeId client_node = 0;  // where the commit event goes
  RwSet rwset;
  std::uint32_t endorsement_count = 0;
  sim::SimTime order_submit_time = 0;  // phase instrumentation (Table 3)

  std::size_t WireSize() const { return 128 + rwset.WireSize(); }
};

struct FabOrderMsg final : sim::Message {
  std::shared_ptr<const FabTransaction> tx;
  std::size_t WireSize() const override { return tx->WireSize() + 16; }
};

struct FabBlock {
  std::uint64_t number = 0;
  std::vector<std::shared_ptr<const FabTransaction>> txs;
  std::size_t WireSize() const {
    std::size_t size = 96;
    for (const auto& tx : txs) size += tx->WireSize();
    return size;
  }
};

struct FabBlockMsg final : sim::Message {
  std::shared_ptr<const FabBlock> block;
  std::size_t WireSize() const override { return block->WireSize(); }
};

/// Peer → client commit notification (the peer event service).
struct FabCommitEventMsg final : sim::Message {
  crypto::Digest tx_id;
  bool valid = false;
  std::size_t WireSize() const override { return 80; }
};

}  // namespace orderless::fabric
