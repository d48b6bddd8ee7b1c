#include "harness/orderless_net.h"

namespace orderless::harness {

OrderlessNet::OrderlessNet(OrderlessNetConfig config)
    : config_(config), rng_(config.seed) {
  // Every org and client gets its own event lane in both modes — the
  // canonical event keys (and so every outcome) are a function of the
  // topology, never of the thread count. Must precede the first scheduled
  // event; the Network ctor below proposes the lookahead.
  simulation_.SetThreads(config_.threads);
  for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
    simulation_.RegisterActor(org_node(i));
  }
  for (std::uint32_t i = 0; i < config_.num_clients; ++i) {
    simulation_.RegisterActor(client_node(i));
  }
  if (config_.tracer) {
    simulation_.SetTracer(config_.tracer);
    for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
      config_.tracer->SetActorName(org_node(i), "org-" + std::to_string(i));
    }
    for (std::uint32_t i = 0; i < config_.num_clients; ++i) {
      config_.tracer->SetActorName(client_node(i),
                                   "client-" + std::to_string(i));
    }
  }
  if (config_.profiler) simulation_.SetProfiler(config_.profiler);
  network_ = std::make_unique<sim::Network>(simulation_, config_.net,
                                            rng_.Fork());

  if (config_.tracer && simulation_.parallel()) {
    // One shard per lane; the parent absorbs them at every epoch barrier in
    // lane order, reproducing the sequential append order byte for byte.
    obs::Tracer* tracer = config_.tracer;
    const std::size_t lanes = config_.num_orgs + config_.num_clients;
    for (std::size_t lane = 1; lane <= lanes; ++lane) {
      tracer_shards_.push_back(tracer->NewShard());
      tracer_shard_ptrs_.push_back(tracer_shards_.back().get());
      simulation_.SetLaneTracer(static_cast<sim::ActorId>(lane),
                                tracer_shards_.back().get());
    }
    simulation_.AddEpochHook(
        [tracer, this] { tracer->AbsorbShards(tracer_shard_ptrs_); });
  }

  for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
    org_nodes_.push_back(org_node(i));
    org_identities_.push_back(pki_.Generate("org" + std::to_string(i)));
    org_keys_.insert(org_identities_.back().id());
    org_stores_.push_back(std::make_shared<ledger::MemKvStore>());
  }
  for (std::uint32_t i = 0; i < config_.num_orgs; ++i) {
    orgs_.push_back(std::make_unique<core::Organization>(
        simulation_, *network_, org_nodes_[i], org_identities_[i], pki_,
        contracts_, config_.policy, config_.org_timing, rng_.Fork(),
        org_stores_[i]));
  }
  for (auto& org : orgs_) {
    org->SetPeers(org_nodes_, org_keys_);
  }
  for (std::uint32_t i = 0; i < config_.num_clients; ++i) {
    const sim::NodeId node = client_node(i);
    crypto::PrivateKey key = pki_.Generate("client" + std::to_string(i));
    clients_.push_back(std::make_unique<core::Client>(
        simulation_, *network_, node, key, pki_, config_.policy, org_nodes_,
        config_.client_timing, rng_.Fork()));
  }
}

void OrderlessNet::RegisterContract(
    std::shared_ptr<const core::SmartContract> contract) {
  contracts_.Register(std::move(contract));
}

void OrderlessNet::Start() {
  for (auto& org : orgs_) org->Start();
  for (auto& client : clients_) client->Start();
}

void OrderlessNet::CrashOrg(std::size_t i) { orgs_[i]->Stop(); }

bool OrderlessNet::RestartOrg(std::size_t i) {
  if (orgs_[i]->running()) orgs_[i]->Stop();
  // The stopped predecessor stays alive in the graveyard: simulator events
  // queued before the crash still point at it (and no-op when they fire).
  graveyard_.push_back(std::move(orgs_[i]));
  orgs_[i] = std::make_unique<core::Organization>(
      simulation_, *network_, org_node(i), org_identities_[i], pki_,
      contracts_, config_.policy, config_.org_timing, rng_.Fork(),
      org_stores_[i]);
  orgs_[i]->SetPeers(org_nodes_, org_keys_);
  const bool consistent = orgs_[i]->RecoverFromLedger();
  orgs_[i]->Start();
  return consistent;
}

bool OrderlessNet::StateConverged(const std::string& object_id) const {
  if (orgs_.empty()) return true;
  const Bytes reference =
      orgs_[0]->ledger().cache().EncodeObjectState(object_id);
  for (std::size_t i = 1; i < orgs_.size(); ++i) {
    if (orgs_[i]->ledger().cache().EncodeObjectState(object_id) != reference) {
      return false;
    }
  }
  return true;
}

bool OrderlessNet::StateConvergedAmong(
    const std::string& object_id,
    const std::vector<std::size_t>& org_indices) const {
  if (org_indices.size() < 2) return true;
  const Bytes reference =
      orgs_[org_indices[0]]->ledger().cache().EncodeObjectState(object_id);
  for (std::size_t k = 1; k < org_indices.size(); ++k) {
    if (orgs_[org_indices[k]]->ledger().cache().EncodeObjectState(object_id) !=
        reference) {
      return false;
    }
  }
  return true;
}

RobustnessStats OrderlessNet::Robustness() const {
  RobustnessStats r;
  for (const auto& org : orgs_) {
    AddCounters(r.overload, org->overload_stats());
    AddCounters(r.catchup, org->catchup_stats());
  }
  for (const auto& client : clients_) {
    AddCounters(r.retry, client->retry_stats());
  }
  return r;
}

}  // namespace orderless::harness
