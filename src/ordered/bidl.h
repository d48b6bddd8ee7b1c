// BIDL baseline (paper [66]): a permissioned blockchain optimized for data
// center networks. A central sequencer assigns sequence numbers and
// multicasts transactions to every organization; organizations execute in
// sequence order while a leader-driven batch consensus confirms prefixes.
// In the paper's WAN setup the sequencer multicast and the coordination
// rounds become the bottleneck — which this model reproduces: the sequencer
// pays per-organization egress bandwidth for every transaction.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ordered/order_execute.h"

namespace orderless::ordered {

struct BidlSeqMsg final : sim::Message {
  std::shared_ptr<const Tx> tx;
  std::uint64_t seq = 0;
  std::size_t WireSize() const override { return tx->WireSize() + 16; }
};

struct BidlProposeMsg final : sim::Message {
  std::uint64_t up_to = 0;  // propose committing sequence prefix [1, up_to]
  crypto::Digest batch_hash;
  std::size_t WireSize() const override { return 80; }
};

struct BidlVoteMsg final : sim::Message {
  std::uint64_t contiguous_max = 0;  // highest prefix the voter holds
  std::size_t WireSize() const override { return 72; }
};

struct BidlCommitMsg final : sim::Message {
  std::uint64_t up_to = 0;
  std::size_t WireSize() const override { return 72; }
};

/// Consensus cadence; service times are rows of the cost table
/// (sim/costs.h).
struct BidlConfig {
  sim::SimTime consensus_interval = sim::Ms(250);
};

class BidlSequencer {
 public:
  BidlSequencer(sim::Simulation& simulation, sim::Network& network,
                sim::NodeId node);
  void Start();
  void SetOrgs(std::vector<sim::NodeId> orgs) { orgs_ = std::move(orgs); }
  std::uint64_t sequenced() const { return next_seq_ - 1; }

 private:
  void OnDelivery(const sim::Delivery& delivery);

  sim::Network& network_;
  sim::NodeId node_;
  sim::Processor cpu_;
  std::vector<sim::NodeId> orgs_;
  std::uint64_t next_seq_ = 1;
};

class BidlOrg : public Replica {
 public:
  BidlOrg(sim::Simulation& simulation, sim::Network& network, sim::NodeId node,
          const fabric::FabricContractRegistry& contracts, bool is_leader,
          BidlConfig config);
  void Start();

  std::uint64_t committed() const { return committed_up_to_; }

  /// Phase averages over transactions this org confirms (Table 3).
  double AvgSequenceMs() const {
    return phase_count_ == 0 ? 0.0 : seq_time_us_ / 1000.0 / phase_count_;
  }
  double AvgConsensusMs() const {
    return phase_count_ == 0
               ? 0.0
               : consensus_time_us_ / 1000.0 / phase_count_;
  }
  double AvgExecutionMs() const {
    return confirm_count_ == 0 ? 0.0
                               : exec_time_us_ / 1000.0 / confirm_count_;
  }
  double AvgCommitMs() const {
    return confirm_count_ == 0 ? 0.0
                               : commit_time_us_ / 1000.0 / confirm_count_;
  }

 private:
  void OnDelivery(const sim::Delivery& delivery);
  void ConsensusTick();
  void CommitUpTo(std::uint64_t up_to);
  std::uint64_t ContiguousMax() const;
  /// PBFT-style quorum: 2f+1 of n = 3f+1 organizations.
  std::size_t Quorum() const { return orgs_.size() - (orgs_.size() - 1) / 3; }

  bool is_leader_;
  BidlConfig config_;

  std::map<std::uint64_t, std::shared_ptr<const Tx>> pending_;  // by seq
  std::map<std::uint64_t, sim::SimTime> seq_arrival_;  // for confirmed txs
  std::uint64_t phase_count_ = 0;
  std::uint64_t seq_time_us_ = 0;
  std::uint64_t consensus_time_us_ = 0;
  // Execution (agreed → executed) and commit (executed → confirm sent)
  // phases, over the transactions this org confirms.
  std::uint64_t confirm_count_ = 0;
  std::uint64_t exec_time_us_ = 0;
  std::uint64_t commit_time_us_ = 0;
  std::uint64_t committed_up_to_ = 0;
  // Leader consensus round state.
  std::uint64_t round_proposed_ = 0;
  std::vector<std::uint64_t> round_votes_;
};

/// Builds a simulated BIDL network: sequencer + organizations + clients.
struct BidlNetConfig {
  std::uint32_t num_orgs = 16;
  std::uint32_t num_clients = 2;
  BidlConfig bidl;
  sim::NetworkConfig net;
  sim::SimTime client_timeout = sim::Sec(240);
  std::uint64_t seed = 1;
};

class BidlNet {
 public:
  explicit BidlNet(BidlNetConfig config);

  void RegisterContract(std::shared_ptr<const fabric::FabricContract> c);
  void Start();

  sim::Simulation& simulation() { return simulation_; }
  std::size_t org_count() const { return orgs_.size(); }
  std::size_t client_count() const { return clients_.size(); }
  BidlOrg& org(std::size_t i) { return *orgs_[i]; }
  Client& client(std::size_t i) { return *clients_[i]; }
  BidlSequencer& sequencer() { return *sequencer_; }

 private:
  BidlNetConfig config_;
  sim::Simulation simulation_;
  fabric::FabricContractRegistry contracts_;
  Rng rng_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<BidlSequencer> sequencer_;
  std::vector<std::unique_ptr<BidlOrg>> orgs_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace orderless::ordered
