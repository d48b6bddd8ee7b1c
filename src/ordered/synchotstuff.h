// Sync HotStuff baseline (paper [1]): synchronous leader-based BFT state
// machine replication. The leader batches client transactions into a block
// each round, broadcasts the proposal to every organization, collects votes,
// and commits after the synchronous 2Δ wait. Under load the leader's
// per-organization proposal broadcast saturates its WAN uplink, and the
// leader queue becomes the latency bottleneck (paper Table 3 / Fig. 10).
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "ordered/order_execute.h"

namespace orderless::ordered {

struct HsBlock {
  std::uint64_t number = 0;
  std::vector<std::shared_ptr<const Tx>> txs;
  std::size_t WireSize() const {
    std::size_t size = 128;
    for (const auto& tx : txs) size += tx->WireSize();
    return size;
  }
};

struct HsProposeMsg final : sim::Message {
  std::shared_ptr<const HsBlock> block;
  std::size_t WireSize() const override { return block->WireSize(); }
};

struct HsVoteMsg final : sim::Message {
  std::uint64_t block_number = 0;
  crypto::KeyId voter = 0;
  std::size_t WireSize() const override { return 96; }
};

struct HsCommitMsg final : sim::Message {
  std::uint64_t block_number = 0;
  std::size_t WireSize() const override { return 80; }
};

/// Round timing; service times and the block cap are rows of the cost
/// table (sim/costs.h).
struct HsConfig {
  sim::SimTime round_interval = sim::Ms(150);  // block proposal cadence
  sim::SimTime delta = sim::Ms(100);           // synchronous delay bound Δ
};

/// The dedicated leader node.
class HsLeader {
 public:
  HsLeader(sim::Simulation& simulation, sim::Network& network,
           sim::NodeId node, HsConfig config);
  void Start();
  void SetOrgs(std::vector<sim::NodeId> orgs) { orgs_ = std::move(orgs); }
  std::uint64_t blocks() const { return next_block_; }

 private:
  void OnDelivery(const sim::Delivery& delivery);
  void RoundTick();

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  HsConfig config_;
  sim::Processor cpu_;
  std::vector<sim::NodeId> orgs_;

  std::deque<std::shared_ptr<const Tx>> mempool_;
  std::uint64_t next_block_ = 0;
  struct Round {
    std::shared_ptr<const HsBlock> block;
    std::size_t votes = 0;
    bool committed = false;
  };
  std::unordered_map<std::uint64_t, Round> rounds_;
};

/// A replica organization.
class HsOrg : public Replica {
 public:
  HsOrg(sim::Simulation& simulation, sim::Network& network, sim::NodeId node,
        const fabric::FabricContractRegistry& contracts, sim::NodeId leader);
  void Start();

  std::uint64_t committed_blocks() const { return committed_blocks_; }

  /// Phase averages over transactions this org confirms (Table 3).
  double AvgConsensusMs() const {
    return phase_count_ == 0
               ? 0.0
               : consensus_time_us_ / 1000.0 / phase_count_;
  }
  double AvgCommitMs() const {
    return phase_count_ == 0 ? 0.0
                             : commit_time_us_ / 1000.0 / phase_count_;
  }

 private:
  void OnDelivery(const sim::Delivery& delivery);
  /// Executes `block`, whose commit arrived at `decided`.
  void ExecuteBlock(const HsBlock& block, sim::SimTime decided);

  sim::NodeId leader_;

  std::unordered_map<std::uint64_t, std::shared_ptr<const HsBlock>>
      pending_blocks_;
  std::uint64_t committed_blocks_ = 0;
  std::uint64_t phase_count_ = 0;
  std::uint64_t consensus_time_us_ = 0;  // submitted → executed
  std::uint64_t commit_time_us_ = 0;     // commit arrival → executed
};

/// Builds a simulated Sync HotStuff network: leader + organizations +
/// clients.
struct HsNetConfig {
  std::uint32_t num_orgs = 16;
  std::uint32_t num_clients = 2;
  HsConfig hs;
  sim::NetworkConfig net;
  sim::SimTime client_timeout = sim::Sec(240);
  std::uint64_t seed = 1;
};

class HsNet {
 public:
  explicit HsNet(HsNetConfig config);

  void RegisterContract(std::shared_ptr<const fabric::FabricContract> c);
  void Start();

  sim::Simulation& simulation() { return simulation_; }
  std::size_t org_count() const { return orgs_.size(); }
  std::size_t client_count() const { return clients_.size(); }
  HsOrg& org(std::size_t i) { return *orgs_[i]; }
  Client& client(std::size_t i) { return *clients_[i]; }
  HsLeader& leader() { return *leader_; }

 private:
  HsNetConfig config_;
  sim::Simulation simulation_;
  fabric::FabricContractRegistry contracts_;
  Rng rng_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<HsLeader> leader_;
  std::vector<std::unique_ptr<HsOrg>> orgs_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace orderless::ordered
