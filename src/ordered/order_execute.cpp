#include "ordered/order_execute.h"

#include "codec/codec.h"
#include "crypto/sha256.h"

namespace orderless::ordered {

// --------------------------------------------------------------- client

Client::Client(sim::Simulation& simulation, sim::Network& network,
               sim::NodeId node, std::uint64_t client_id,
               sim::NodeId coordinator, sim::NodeId assigned_org,
               sim::SimTime timeout, std::size_t tx_wire_size)
    : simulation_(simulation),
      network_(network),
      node_(node),
      client_id_(client_id),
      coordinator_(coordinator),
      assigned_org_(assigned_org),
      timeout_(timeout),
      tx_wire_size_(tx_wire_size) {}

void Client::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
}

void Client::SubmitModify(const std::string& contract,
                          const std::string& function,
                          std::vector<crdt::Value> args,
                          core::TxCallback callback) {
  auto tx = std::make_shared<Tx>();
  tx->submitted_at = simulation_.now();
  tx->client = client_id_;
  tx->client_node = node_;
  tx->contract = contract;
  tx->function = function;
  tx->args = std::move(args);
  tx->nonce = next_nonce_++;
  tx->wire_size = tx_wire_size_;
  codec::Writer w;
  w.PutU64(tx->client);
  w.PutU64(tx->nonce);
  w.PutString(contract);
  w.PutString(function);
  tx->id = crypto::Sha256::Hash(BytesView(w.data()));

  const crypto::Digest id = tx->id;
  auto msg = std::make_shared<TxMsg>();
  msg->tx = std::move(tx);
  Request(id, coordinator_, std::move(msg), /*read=*/false,
          std::move(callback));
}

void Client::SubmitRead(const std::string& contract,
                        const std::string& function,
                        std::vector<crdt::Value> args,
                        core::TxCallback callback) {
  auto msg = std::make_shared<ReadMsg>();
  msg->contract = contract;
  msg->function = function;
  msg->args = std::move(args);
  msg->client = client_id_;
  codec::Writer w;
  w.PutU64(client_id_);
  w.PutU64(next_nonce_++);
  w.PutString("read");
  msg->id = crypto::Sha256::Hash(BytesView(w.data()));

  const crypto::Digest id = msg->id;
  Request(id, assigned_org_, std::move(msg), /*read=*/true,
          std::move(callback));
}

void Client::Request(const crypto::Digest& id, sim::NodeId to,
                     sim::MessagePtr message, bool read,
                     core::TxCallback callback) {
  Pending& p = pending_[id];
  p.callback = std::move(callback);
  p.start = simulation_.now();
  const std::uint64_t generation = ++p.generation;
  network_.Send(node_, to, std::move(message));
  simulation_.Schedule(timeout_, [this, id, generation, read] {
    const auto it = pending_.find(id);
    if (it == pending_.end() || it->second.generation != generation) return;
    core::TxOutcome outcome;
    outcome.failure = read ? "read timeout" : "timeout";
    outcome.read = read;
    outcome.latency = simulation_.now() - it->second.start;
    Finish(id, std::move(outcome));
  });
}

void Client::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* confirm =
          dynamic_cast<const ConfirmMsg*>(delivery.message.get())) {
    const auto it = pending_.find(confirm->tx_id);
    if (it == pending_.end()) return;
    core::TxOutcome outcome;
    outcome.committed = confirm->valid;
    outcome.rejected = !confirm->valid;
    outcome.latency = simulation_.now() - it->second.start;
    Finish(confirm->tx_id, std::move(outcome));
    return;
  }
  if (const auto* reply =
          dynamic_cast<const ReadReplyMsg*>(delivery.message.get())) {
    const auto it = pending_.find(reply->id);
    if (it == pending_.end()) return;
    core::TxOutcome outcome;
    outcome.committed = reply->ok;
    outcome.read = true;
    outcome.read_value = reply->value;
    outcome.latency = simulation_.now() - it->second.start;
    Finish(reply->id, std::move(outcome));
    return;
  }
}

void Client::Finish(const crypto::Digest& id, core::TxOutcome outcome) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  core::TxCallback callback = std::move(it->second.callback);
  pending_.erase(it);
  if (callback) callback(outcome);
}

std::vector<std::unique_ptr<Client>> MakeClients(
    sim::Simulation& simulation, sim::Network& network, std::uint32_t count,
    sim::NodeId coordinator, const std::vector<sim::NodeId>& orgs,
    sim::SimTime timeout, std::size_t tx_wire_size) {
  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint32_t i = 0; i < count; ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(1001 + i);
    clients.push_back(std::make_unique<Client>(
        simulation, network, node, /*client_id=*/i, coordinator,
        orgs[i % orgs.size()], timeout, tx_wire_size));
  }
  return clients;
}

// -------------------------------------------------------------- replica

Replica::Replica(sim::Simulation& simulation, sim::Network& network,
                 sim::NodeId node,
                 const fabric::FabricContractRegistry& contracts,
                 unsigned cores, sim::SimTime exec_per_tx)
    : simulation_(simulation),
      network_(network),
      node_(node),
      cpu_(simulation, cores),
      contracts_(contracts),
      exec_per_tx_(exec_per_tx) {}

void Replica::ServeRead(const ReadMsg& read, sim::NodeId from) {
  cpu_.Submit(exec_per_tx_, [this, req = read, from] {
    auto reply = std::make_shared<ReadReplyMsg>();
    reply->id = req.id;
    const fabric::FabricContract* contract = contracts_.Find(req.contract);
    if (contract != nullptr) {
      fabric::FabricResult result =
          contract->Invoke(state_, req.function, req.client, 0, req.args);
      reply->ok = result.ok;
      reply->value = std::move(result.value);
    }
    network_.Send(node_, from, reply);
  });
}

bool Replica::ExecuteThenConfirm(const Tx& tx) {
  const fabric::FabricContract* contract = contracts_.Find(tx.contract);
  bool valid = false;
  if (contract != nullptr) {
    fabric::FabricResult result =
        contract->Invoke(state_, tx.function, tx.client, tx.nonce, tx.args);
    if (result.ok) {
      for (const auto& [key, value] : result.rwset.writes) {
        state_.Put(key, value);
      }
      valid = true;
    }
  }
  if (tx.client_node == 0 || !AssignedTo(tx.client)) return false;
  auto confirm = std::make_shared<ConfirmMsg>();
  confirm->tx_id = tx.id;
  confirm->valid = valid;
  network_.Send(node_, tx.client_node, confirm);
  return true;
}

}  // namespace orderless::ordered
