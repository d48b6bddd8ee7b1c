// What the two order-execute baselines share. In BIDL (bidl.h) and Sync
// HotStuff (synchotstuff.h) a coordinator orders client transactions and
// every organization executes the agreed order against its own world state;
// the two differ only in how that order is agreed. The client, the
// transaction, the confirm and read messages, the read service and the
// execute-then-confirm step are therefore one code path here.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/client.h"  // TxOutcome / TxCallback
#include "fabric/contract.h"
#include "sim/processor.h"

namespace orderless::ordered {

/// One client transaction, as the coordinator orders it. Each protocol
/// sets its own wire size (220 B BIDL, 400 B Sync HotStuff).
struct Tx {
  crypto::Digest id;
  sim::SimTime submitted_at = 0;  // phase instrumentation (Table 3)
  std::uint64_t client = 0;
  sim::NodeId client_node = 0;
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;
  std::uint64_t nonce = 0;
  std::size_t wire_size = 0;
  std::size_t WireSize() const { return wire_size; }
};

/// Client → coordinator (BIDL's sequencer, Sync HotStuff's leader).
struct TxMsg final : sim::Message {
  std::shared_ptr<const Tx> tx;
  std::size_t WireSize() const override { return tx->WireSize(); }
};

/// The client's assigned organization → client, once the tx executed.
struct ConfirmMsg final : sim::Message {
  crypto::Digest tx_id;
  bool valid = true;
  std::size_t WireSize() const override { return 80; }
};

/// Client → its assigned organization: a read, served outside the order.
struct ReadMsg final : sim::Message {
  crypto::Digest id;
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;
  std::uint64_t client = 0;
  std::size_t WireSize() const override { return 160; }
};

struct ReadReplyMsg final : sim::Message {
  crypto::Digest id;
  bool ok = false;
  crdt::Value value;
  std::size_t WireSize() const override { return 96; }
};

/// Sends modifies to the coordinator and reads to its assigned organization,
/// and fails either after `timeout` without an answer.
class Client {
 public:
  Client(sim::Simulation& simulation, sim::Network& network, sim::NodeId node,
         std::uint64_t client_id, sim::NodeId coordinator,
         sim::NodeId assigned_org, sim::SimTime timeout,
         std::size_t tx_wire_size);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  void Start();
  void SubmitModify(const std::string& contract, const std::string& function,
                    std::vector<crdt::Value> args, core::TxCallback callback);
  void SubmitRead(const std::string& contract, const std::string& function,
                  std::vector<crdt::Value> args, core::TxCallback callback);
  sim::NodeId node() const { return node_; }

 private:
  struct Pending {
    core::TxCallback callback;
    sim::SimTime start = 0;
    std::uint64_t generation = 0;
  };
  /// Tracks request `id`, sends `message` to `to` and arms the timeout.
  void Request(const crypto::Digest& id, sim::NodeId to,
               sim::MessagePtr message, bool read, core::TxCallback callback);
  void OnDelivery(const sim::Delivery& delivery);
  void Finish(const crypto::Digest& id, core::TxOutcome outcome);

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  std::uint64_t client_id_;
  sim::NodeId coordinator_;
  sim::NodeId assigned_org_;
  sim::SimTime timeout_;
  std::size_t tx_wire_size_;
  std::uint64_t next_nonce_ = 1;
  std::unordered_map<crypto::Digest, Pending, crypto::DigestHash> pending_;
};

/// `count` clients on nodes 1001.., client i assigned to organization
/// i mod |orgs|, each sending its modifies to `coordinator`.
std::vector<std::unique_ptr<Client>> MakeClients(
    sim::Simulation& simulation, sim::Network& network, std::uint32_t count,
    sim::NodeId coordinator, const std::vector<sim::NodeId>& orgs,
    sim::SimTime timeout, std::size_t tx_wire_size);

/// The execution side every order-execute organization shares: its
/// contracts, world state, cores and the organization directory that names
/// each client's assigned organization. Service times are rows of the cost
/// table (sim/costs.h).
class Replica {
 public:
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
  void SetOrgs(std::vector<sim::NodeId> orgs) { orgs_ = std::move(orgs); }
  sim::NodeId node() const { return node_; }
  const fabric::VersionedStore& state() const { return state_; }

 protected:
  Replica(sim::Simulation& simulation, sim::Network& network,
          sim::NodeId node, const fabric::FabricContractRegistry& contracts);

  /// Service time of executing `txs` ordered transactions whose order a
  /// quorum of `votes` decided.
  static sim::SimTime ExecuteService(std::size_t txs, std::size_t votes);

  /// Whether this organization serves and confirms `client`.
  bool AssignedTo(std::uint64_t client) const {
    return orgs_[client % orgs_.size()] == node_;
  }
  /// Answers a read after one execution slot on this organization's cores.
  void ServeRead(const ReadMsg& read, sim::NodeId from);
  /// Executes one ordered transaction against the state; when this
  /// organization is the client's assigned one, also sends the confirm and
  /// returns true.
  bool ExecuteThenConfirm(const Tx& tx);

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  sim::Processor cpu_;
  std::vector<sim::NodeId> orgs_;

 private:
  const fabric::FabricContractRegistry& contracts_;
  fabric::VersionedStore state_;
};

}  // namespace orderless::ordered
