#include "ordered/synchotstuff.h"

#include <algorithm>

#include "sim/costs.h"

namespace orderless::ordered {

namespace {
constexpr sim::NodeId kLeaderNode = 700;
constexpr std::size_t kTxWireSize = 400;

/// Votes that decide a block among `orgs` organizations: n − f with
/// f < n/2 for Sync HotStuff.
std::size_t Quorum(std::size_t orgs) { return orgs - (orgs - 1) / 2; }
}  // namespace

// --------------------------------------------------------------- leader

HsLeader::HsLeader(sim::Simulation& simulation, sim::Network& network,
                   sim::NodeId node, HsConfig config)
    : simulation_(simulation),
      network_(network),
      node_(node),
      config_(config),
      cpu_(simulation, sim::cost::kNodeCores) {}

void HsLeader::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
  simulation_.Schedule(config_.round_interval, [this] { RoundTick(); });
}

void HsLeader::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* msg = dynamic_cast<const TxMsg*>(delivery.message.get())) {
    auto tx = msg->tx;
    cpu_.Submit(sim::cost::kHsLeaderPerTx,
                [this, tx] { mempool_.push_back(tx); });
    return;
  }
  if (const auto* vote =
          dynamic_cast<const HsVoteMsg*>(delivery.message.get())) {
    const auto it = rounds_.find(vote->block_number);
    if (it == rounds_.end() || it->second.committed) return;
    Round& round = it->second;
    ++round.votes;
    // Synchronous BFT: wait for n-f votes, then the 2Δ synchronous delay
    // before committing.
    if (round.votes >= Quorum(orgs_.size())) {
      round.committed = true;
      const std::uint64_t number = vote->block_number;
      simulation_.Schedule(2 * config_.delta, [this, number] {
        auto commit = std::make_shared<HsCommitMsg>();
        commit->block_number = number;
        for (sim::NodeId org : orgs_) network_.Send(node_, org, commit);
        rounds_.erase(number);
      });
    }
    return;
  }
}

void HsLeader::RoundTick() {
  if (!mempool_.empty()) {
    auto block = std::make_shared<HsBlock>();
    block->number = next_block_++;
    const std::size_t take =
        std::min(mempool_.size(), sim::cost::kHsMaxBlockTxs);
    block->txs.assign(mempool_.begin(),
                      mempool_.begin() + static_cast<std::ptrdiff_t>(take));
    mempool_.erase(mempool_.begin(),
                   mempool_.begin() + static_cast<std::ptrdiff_t>(take));
    rounds_[block->number] = Round{block, 0, false};
    // Leader broadcast: one full copy of the block per organization — the
    // WAN bottleneck for leader-based consensus.
    auto msg = std::make_shared<HsProposeMsg>();
    msg->block = block;
    for (sim::NodeId org : orgs_) network_.Send(node_, org, msg);
  }
  simulation_.Schedule(config_.round_interval, [this] { RoundTick(); });
}

// ------------------------------------------------------------------ org

HsOrg::HsOrg(sim::Simulation& simulation, sim::Network& network,
             sim::NodeId node, const fabric::FabricContractRegistry& contracts,
             sim::NodeId leader)
    : Replica(simulation, network, node, contracts), leader_(leader) {}

void HsOrg::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
}

void HsOrg::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* propose =
          dynamic_cast<const HsProposeMsg*>(delivery.message.get())) {
    pending_blocks_[propose->block->number] = propose->block;
    auto vote = std::make_shared<HsVoteMsg>();
    vote->block_number = propose->block->number;
    network_.Send(node_, leader_, vote);
    return;
  }
  if (const auto* commit =
          dynamic_cast<const HsCommitMsg*>(delivery.message.get())) {
    const auto it = pending_blocks_.find(commit->block_number);
    if (it == pending_blocks_.end()) return;
    auto block = it->second;
    pending_blocks_.erase(it);
    const sim::SimTime decided = simulation_.now();
    const sim::SimTime service =
        ExecuteService(block->txs.size(), Quorum(orgs_.size()));
    cpu_.Submit(service,
                [this, block, decided] { ExecuteBlock(*block, decided); });
    return;
  }
  if (const auto* read = dynamic_cast<const ReadMsg*>(delivery.message.get())) {
    ServeRead(*read, delivery.from);
    return;
  }
}

void HsOrg::ExecuteBlock(const HsBlock& block, sim::SimTime decided) {
  ++committed_blocks_;
  for (const auto& tx : block.txs) {
    if (ExecuteThenConfirm(*tx) && tx->submitted_at > 0) {
      ++phase_count_;
      consensus_time_us_ += simulation_.now() - tx->submitted_at;
      commit_time_us_ += simulation_.now() - decided;
    }
  }
}

// ------------------------------------------------------------------ net

HsNet::HsNet(HsNetConfig config) : config_(config), rng_(config.seed) {
  network_ = std::make_unique<sim::Network>(simulation_, config_.net,
                                            rng_.Fork());
  leader_ = std::make_unique<HsLeader>(simulation_, *network_, kLeaderNode,
                                       config_.hs);
  std::vector<sim::NodeId> org_nodes;
  for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(1 + i);
    org_nodes.push_back(node);
    orgs_.push_back(std::make_unique<HsOrg>(simulation_, *network_, node,
                                            contracts_, kLeaderNode));
  }
  leader_->SetOrgs(org_nodes);
  for (auto& org : orgs_) org->SetOrgs(org_nodes);
  clients_ = MakeClients(simulation_, *network_, config_.num_clients,
                         kLeaderNode, org_nodes, config_.client_timeout,
                         kTxWireSize);
}

void HsNet::RegisterContract(
    std::shared_ptr<const fabric::FabricContract> c) {
  contracts_.Register(std::move(c));
}

void HsNet::Start() {
  leader_->Start();
  for (auto& org : orgs_) org->Start();
  for (auto& client : clients_) client->Start();
}

}  // namespace orderless::ordered
