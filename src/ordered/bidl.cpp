#include "ordered/bidl.h"

#include <algorithm>

namespace orderless::ordered {

namespace {
constexpr sim::NodeId kSequencerNode = 600;
constexpr std::size_t kTxWireSize = 220;  // compact datacenter wire format
}  // namespace

// ------------------------------------------------------------- sequencer

BidlSequencer::BidlSequencer(sim::Simulation& simulation,
                             sim::Network& network, sim::NodeId node,
                             BidlConfig config)
    : network_(network), node_(node), config_(config), cpu_(simulation, 1) {}

void BidlSequencer::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
}

void BidlSequencer::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  const auto* msg = dynamic_cast<const TxMsg*>(delivery.message.get());
  if (msg == nullptr) return;
  auto tx = msg->tx;
  cpu_.Submit(config_.sequencer_per_tx, [this, tx] {
    const std::uint64_t seq = next_seq_++;
    // Multicast to every organization: the per-organization egress copies
    // are what saturate the sequencer uplink in a WAN (paper §9).
    for (sim::NodeId org : orgs_) {
      auto out = std::make_shared<BidlSeqMsg>();
      out->tx = tx;
      out->seq = seq;
      network_.Send(node_, org, out);
    }
  });
}

// ------------------------------------------------------------------ org

BidlOrg::BidlOrg(sim::Simulation& simulation, sim::Network& network,
                 sim::NodeId node,
                 const fabric::FabricContractRegistry& contracts,
                 bool is_leader, BidlConfig config)
    : Replica(simulation, network, node, contracts, config.org_cores,
              config.exec_per_tx),
      is_leader_(is_leader),
      config_(config) {}

void BidlOrg::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
  if (is_leader_) {
    simulation_.Schedule(config_.consensus_interval,
                         [this] { ConsensusTick(); });
  }
}

std::uint64_t BidlOrg::ContiguousMax() const {
  std::uint64_t max = committed_up_to_;
  for (auto it = pending_.find(max + 1); it != pending_.end();
       it = pending_.find(max + 1)) {
    ++max;
  }
  return max;
}

void BidlOrg::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  if (const auto* seq_msg =
          dynamic_cast<const BidlSeqMsg*>(delivery.message.get())) {
    if (seq_msg->seq > committed_up_to_) {
      if (pending_.emplace(seq_msg->seq, seq_msg->tx).second &&
          AssignedTo(seq_msg->tx->client)) {
        seq_arrival_[seq_msg->seq] = simulation_.now();
        if (seq_msg->tx->submitted_at > 0) {
          ++phase_count_;
          seq_time_us_ += simulation_.now() - seq_msg->tx->submitted_at;
        }
      }
    }
    return;
  }
  if (dynamic_cast<const BidlProposeMsg*>(delivery.message.get())) {
    auto vote = std::make_shared<BidlVoteMsg>();
    vote->contiguous_max = ContiguousMax();
    network_.Send(node_, delivery.from, vote);
    return;
  }
  if (const auto* vote =
          dynamic_cast<const BidlVoteMsg*>(delivery.message.get())) {
    if (!is_leader_ || round_proposed_ == 0) return;
    round_votes_.push_back(vote->contiguous_max);
    // PBFT-style quorum: 2f+1 of n = 3f+1 organizations.
    const std::size_t n = orgs_.size();
    const std::size_t quorum = n - (n - 1) / 3;
    if (round_votes_.size() >= quorum) {
      std::sort(round_votes_.begin(), round_votes_.end(),
                std::greater<std::uint64_t>());
      const std::uint64_t agreed =
          std::min(round_votes_[quorum - 1], round_proposed_);
      round_proposed_ = 0;
      round_votes_.clear();
      if (agreed > committed_up_to_) {
        auto commit = std::make_shared<BidlCommitMsg>();
        commit->up_to = agreed;
        for (sim::NodeId org : orgs_) {
          if (org != node_) network_.Send(node_, org, commit);
        }
        CommitUpTo(agreed);
      }
    }
    return;
  }
  if (const auto* commit =
          dynamic_cast<const BidlCommitMsg*>(delivery.message.get())) {
    CommitUpTo(commit->up_to);
    return;
  }
  if (const auto* read = dynamic_cast<const ReadMsg*>(delivery.message.get())) {
    ServeRead(*read, delivery.from);
    return;
  }
}

void BidlOrg::ConsensusTick() {
  if (round_proposed_ == 0) {
    const std::uint64_t up_to = ContiguousMax();
    if (up_to > committed_up_to_) {
      round_proposed_ = up_to;
      round_votes_.clear();
      round_votes_.push_back(up_to);  // leader's own vote
      auto propose = std::make_shared<BidlProposeMsg>();
      propose->up_to = up_to;
      for (sim::NodeId org : orgs_) {
        if (org != node_) network_.Send(node_, org, propose);
      }
    }
  }
  simulation_.Schedule(config_.consensus_interval, [this] { ConsensusTick(); });
}

void BidlOrg::CommitUpTo(std::uint64_t up_to) {
  if (up_to <= committed_up_to_) return;
  // Execute the agreed prefix in sequence order.
  std::vector<std::shared_ptr<const Tx>> batch;
  for (std::uint64_t seq = committed_up_to_ + 1; seq <= up_to; ++seq) {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) break;  // hole: cannot execute further yet
    batch.push_back(it->second);
    pending_.erase(it);
    committed_up_to_ = seq;
  }
  if (batch.empty()) return;
  const sim::SimTime service =
      config_.exec_per_tx * static_cast<sim::SimTime>(batch.size());
  cpu_.Submit(service, [this, batch = std::move(batch)] {
    for (const auto& tx : batch) {
      if (!ExecuteThenConfirm(*tx)) continue;
      // Consensus phase: from sequencer delivery to committed execution.
      for (auto it = seq_arrival_.begin();
           it != seq_arrival_.end() && it->first <= committed_up_to_;
           it = seq_arrival_.erase(it)) {
        consensus_time_us_ += simulation_.now() - it->second;
      }
    }
  });
}

// ------------------------------------------------------------------ net

BidlNet::BidlNet(BidlNetConfig config) : config_(config), rng_(config.seed) {
  network_ = std::make_unique<sim::Network>(simulation_, config_.net,
                                            rng_.Fork());
  sequencer_ = std::make_unique<BidlSequencer>(simulation_, *network_,
                                               kSequencerNode, config_.bidl);
  std::vector<sim::NodeId> org_nodes;
  for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(1 + i);
    org_nodes.push_back(node);
    orgs_.push_back(std::make_unique<BidlOrg>(simulation_, *network_, node,
                                              contracts_, /*is_leader=*/i == 0,
                                              config_.bidl));
  }
  sequencer_->SetOrgs(org_nodes);
  for (auto& org : orgs_) org->SetOrgs(org_nodes);
  clients_ = MakeClients(simulation_, *network_, config_.num_clients,
                         kSequencerNode, org_nodes, config_.client_timeout,
                         kTxWireSize);
}

void BidlNet::RegisterContract(
    std::shared_ptr<const fabric::FabricContract> c) {
  contracts_.Register(std::move(c));
}

void BidlNet::Start() {
  sequencer_->Start();
  for (auto& org : orgs_) org->Start();
  for (auto& client : clients_) client->Start();
}

}  // namespace orderless::ordered
