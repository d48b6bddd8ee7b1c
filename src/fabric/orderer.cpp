#include "fabric/orderer.h"

#include "sim/costs.h"

namespace orderless::fabric {

Orderer::Orderer(sim::Simulation& simulation, sim::Network& network,
                 sim::NodeId node, OrdererConfig config)
    : simulation_(simulation),
      network_(network),
      node_(node),
      config_(config),
      cpu_(simulation, sim::cost::kSequencerCores) {}

void Orderer::Start() {
  network_.Register(node_, [this](const sim::Delivery& d) { OnDelivery(d); });
}

void Orderer::OnDelivery(const sim::Delivery& delivery) {
  if (delivery.corrupted) return;
  const auto* order = dynamic_cast<const FabOrderMsg*>(delivery.message.get());
  if (order == nullptr) return;
  // Sequencing cost: the single ordering core is the system's choke point.
  auto tx = order->tx;
  cpu_.Submit(sim::cost::kOrdererPerTx, [this, tx] { EnqueueOrdered(tx); });
}

void Orderer::EnqueueOrdered(std::shared_ptr<const FabTransaction> tx) {
  ++txs_ordered_;
  pending_.push_back(std::move(tx));
  if (pending_.size() >= config_.block_size) {
    ++timeout_generation_;  // cancel a pending timeout cut
    CutBlock();
    return;
  }
  if (!timeout_armed_) {
    timeout_armed_ = true;
    const std::uint64_t generation = ++timeout_generation_;
    simulation_.Schedule(config_.block_timeout, [this, generation] {
      if (generation == timeout_generation_ && !pending_.empty()) {
        CutBlock();
      }
      if (generation == timeout_generation_) timeout_armed_ = false;
    });
  }
}

void Orderer::CutBlock() {
  auto block = std::make_shared<FabBlock>();
  block->number = next_block_++;
  block->txs = std::move(pending_);
  pending_.clear();
  timeout_armed_ = false;

  simulation_.Schedule(sim::cost::kOrdererBlockCut, [this, block] {
    auto msg = std::make_shared<FabBlockMsg>();
    msg->block = block;
    for (sim::NodeId peer : peers_) {
      network_.Send(node_, peer, msg);
    }
  });
}

}  // namespace orderless::fabric
