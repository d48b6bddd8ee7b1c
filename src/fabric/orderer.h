// Solo ordering service (paper §9: "Fabric, FabricCRDT, and BIDL use the
// Solo ordering service"). Single sequencing node: every transaction pays a
// per-transaction ordering cost on one core, transactions are batched into
// blocks by size or timeout, and blocks are broadcast to every peer over the
// orderer's (bandwidth-limited) uplink. Under load the queue in front of
// this node is exactly Fabric's consensus bottleneck (Table 3's 17 s).
#pragma once

#include <memory>
#include <vector>

#include "fabric/messages.h"
#include "sim/processor.h"

namespace orderless::fabric {

/// Block cutting; the ordering cost is a row of the cost table
/// (sim/costs.h).
struct OrdererConfig {
  std::size_t block_size = 100;
  sim::SimTime block_timeout = sim::Ms(500);
};

class Orderer {
 public:
  Orderer(sim::Simulation& simulation, sim::Network& network,
          sim::NodeId node, OrdererConfig config);

  void Start();
  void SetPeers(std::vector<sim::NodeId> peers) { peers_ = std::move(peers); }

  sim::NodeId node() const { return node_; }
  std::uint64_t blocks_cut() const { return next_block_; }
  std::uint64_t txs_ordered() const { return txs_ordered_; }

 private:
  void OnDelivery(const sim::Delivery& delivery);
  void EnqueueOrdered(std::shared_ptr<const FabTransaction> tx);
  void CutBlock();

  sim::Simulation& simulation_;
  sim::Network& network_;
  sim::NodeId node_;
  OrdererConfig config_;
  sim::Processor cpu_;
  std::vector<sim::NodeId> peers_;

  std::vector<std::shared_ptr<const FabTransaction>> pending_;
  bool timeout_armed_ = false;
  std::uint64_t timeout_generation_ = 0;
  std::uint64_t next_block_ = 0;
  std::uint64_t txs_ordered_ = 0;
};

}  // namespace orderless::fabric
