// Builds a complete simulated OrderlessChain network: organizations with
// PKI identities, clients, and the WAN fabric. Shared by integration tests,
// examples and the benchmark harness.
#pragma once

#include <memory>
#include <vector>

#include "core/client.h"
#include "core/org.h"
#include "crypto/pki.h"
#include "obs/trace.h"
#include "sim/network.h"

namespace orderless::obs {
class Profiler;
}

namespace orderless::harness {

struct OrderlessNetConfig {
  std::uint32_t num_orgs = 4;
  std::uint32_t num_clients = 2;
  core::EndorsementPolicy policy{2, 4};
  sim::NetworkConfig net;  // defaults to the paper's WAN emulation
  core::OrgTimingConfig org_timing;
  core::ClientTimingConfig client_timing;
  std::uint64_t seed = 1;
  /// Optional observability hook (not owned). Attached to the simulation and
  /// given per-actor track names; null = tracing disabled, zero overhead.
  obs::Tracer* tracer = nullptr;
  /// Optional host-side profiler (not owned). Attached to the simulation;
  /// null = no profiler instructions on the hot path.
  obs::Profiler* profiler = nullptr;
  /// Simulation worker threads. 1 = the sequential engine; >1 executes org
  /// and client lanes in conservative parallel epochs with bit-identical
  /// results (see sim/simulation.h).
  unsigned threads = 1;
};

class OrderlessNet {
 public:
  explicit OrderlessNet(OrderlessNetConfig config);

  /// Registers a contract on every organization (call before Start).
  void RegisterContract(std::shared_ptr<const core::SmartContract> contract);

  /// Wires handlers and starts gossip timers.
  void Start();

  sim::Simulation& simulation() { return simulation_; }
  sim::Network& network() { return *network_; }
  const crypto::Pki& pki() const { return pki_; }
  const OrderlessNetConfig& config() const { return config_; }

  std::size_t org_count() const { return orgs_.size(); }
  std::size_t client_count() const { return clients_.size(); }
  core::Organization& org(std::size_t i) { return *orgs_[i]; }
  core::Client& client(std::size_t i) { return *clients_[i]; }

  /// Node id helpers (organizations are 1..n, clients 1001..).
  sim::NodeId org_node(std::size_t i) const {
    return static_cast<sim::NodeId>(1 + i);
  }
  sim::NodeId client_node(std::size_t i) const {
    return static_cast<sim::NodeId>(1001 + i);
  }

  /// Event-lane ids (every org and client gets a lane in both modes, so the
  /// canonical event keys — and therefore outcomes — do not depend on the
  /// thread count).
  sim::ActorId org_actor(std::size_t i) const {
    return simulation_.ActorOf(org_node(i));
  }
  sim::ActorId client_actor(std::size_t i) const {
    return simulation_.ActorOf(client_node(i));
  }

  /// Crash fault: halts organization `i` and disconnects it. Its ledger's
  /// backing store survives for a later RestartOrg.
  void CrashOrg(std::size_t i);

  /// Rebuilds organization `i` from its persisted ledger store (the paper's
  /// LevelDB recovery path), re-joins it to gossip and restarts it. Returns
  /// false when the recovered chain fails the hash cross-check.
  bool RestartOrg(std::size_t i);

  bool OrgRunning(std::size_t i) const { return orgs_[i]->running(); }

  /// True when every organization holds the same state for `object_id`.
  bool StateConverged(const std::string& object_id) const;

  /// Like StateConverged but only over the given organization indices (chaos
  /// runs exclude Byzantine organizations from the SEC invariant).
  bool StateConvergedAmong(const std::string& object_id,
                           const std::vector<std::size_t>& org_indices) const;

 private:
  OrderlessNetConfig config_;
  sim::Simulation simulation_;
  crypto::Pki pki_;
  core::ContractRegistry contracts_;
  Rng rng_;
  std::unique_ptr<sim::Network> network_;
  std::vector<std::unique_ptr<core::Organization>> orgs_;
  std::vector<std::unique_ptr<core::Client>> clients_;
  // Restart support: per-org persistent store, identity, and the directory
  // every organization was wired with.
  std::vector<std::shared_ptr<ledger::KvStore>> org_stores_;
  std::vector<crypto::PrivateKey> org_identities_;
  std::vector<sim::NodeId> org_nodes_;
  std::set<crypto::KeyId> org_keys_;
  // Crashed predecessors: kept alive until the simulation drains, because
  // already-queued events still reference them (they no-op once stopped).
  std::vector<std::unique_ptr<core::Organization>> graveyard_;
  // Per-lane trace shards (parallel runs only), in lane order for the
  // deterministic absorb at each epoch barrier.
  std::vector<std::unique_ptr<obs::Tracer>> tracer_shards_;
  std::vector<obs::Tracer*> tracer_shard_ptrs_;
};

}  // namespace orderless::harness
