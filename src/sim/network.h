// Simulated WAN. Models the paper's NetEm setup: per-link propagation delay
// (100 ms ping → 50 ms one-way), Gaussian jitter (4 ms), per-node egress
// serialization at 100 Mbit/s, plus fault injection (drop / duplicate /
// corrupt) and network partitions.
//
// Parallel-execution contract: the one-way latency is the simulation's
// conservative lookahead (the ctor proposes it), so every cross-node
// delivery lands at least one lookahead after the send and can be scheduled
// onto the receiver's lane without violating epoch boundaries. All per-send
// mutable state (egress busy-until, the RNG behind drop / jitter /
// duplicate / corrupt draws) is sharded per source node, created when the
// node registers, so concurrent sends from different lanes never share a
// generator — and draw the same values the sequential engine draws.
// Topology mutations (Register / Unregister / SetPartition / link faults)
// must happen outside parallel epochs: at setup or on the exclusive harness
// lane (chaos fault scripts), where no other lane is running.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace orderless::sim {

/// Base class of every simulated wire message. Concrete messages report
/// their encoded size so the bandwidth model is faithful without paying for
/// full serialization on every send.
class Message {
 public:
  virtual ~Message() = default;
  virtual std::size_t WireSize() const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

/// What a node receives.
struct Delivery {
  NodeId from = 0;
  MessagePtr message;
  /// Set when the link corrupted the payload in flight; receivers must treat
  /// the message as undecodable.
  bool corrupted = false;
};

struct NetworkConfig {
  SimTime one_way_latency = Ms(50);  // 100 ms ping
  double jitter_stddev_ms = 2.0;     // ~4 ms peak-to-peak
  double bandwidth_bps = 100e6;      // 100 Mbit/s egress per node
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
};

/// Fault rates for one directed link, overriding the global config while
/// installed (chaos scenarios flip these mid-run).
struct LinkFault {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
};

/// Point-to-point message fabric between registered handlers.
class Network {
 public:
  Network(Simulation& simulation, NetworkConfig config, Rng rng);

  using Handler = std::function<void(const Delivery&)>;

  /// Registers the receive handler for `node` and creates its egress lane
  /// (serialization clock + per-source RNG stream).
  void Register(NodeId node, Handler handler);

  /// Removes the handler for `node` (a crashed node); in-flight and future
  /// messages addressed to it vanish until it registers again. The egress
  /// lane survives so a restarted node resumes its RNG stream.
  void Unregister(NodeId node);

  /// Sends `message` from → to with the configured link model. Local sends
  /// (from == to) are delivered with negligible delay.
  void Send(NodeId from, NodeId to, MessagePtr message);

  /// Assigns `node` to a partition group; nodes in different groups cannot
  /// exchange messages until the partition heals. Group 0 is the default.
  void SetPartition(NodeId node, std::uint32_t group);
  void HealPartitions();

  /// Changes the global fault rates mid-run (latency/bandwidth untouched, so
  /// in-flight serialization bookkeeping stays consistent).
  void SetFaultRates(double drop, double duplicate, double corrupt);

  /// Installs / removes a per-directed-link fault override.
  void SetLinkFault(NodeId from, NodeId to, LinkFault fault);
  void ClearLinkFault(NodeId from, NodeId to);
  void ClearLinkFaults();

  const NetworkConfig& config() const { return config_; }
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_dropped() const {
    return messages_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-source-node send state. Sharding it keeps concurrent lanes off a
  /// shared generator AND makes the draw sequence a function of the sending
  /// node alone — the property that makes threads=N replay threads=1.
  struct Egress {
    SimTime busy_until = 0;
    Rng rng;
    explicit Egress(std::uint64_t seed) : rng(seed) {}
  };

  Egress& EgressFor(NodeId from);
  void Deliver(NodeId from, NodeId to, MessagePtr message, bool corrupted);

  static std::uint64_t LinkKey(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  Simulation& simulation_;
  NetworkConfig config_;
  Rng rng_;  // seeds egress streams; never drawn from during a run
  std::uint64_t egress_seed_base_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::unordered_map<NodeId, std::uint32_t> partitions_;
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  std::unordered_map<NodeId, std::unique_ptr<Egress>> egress_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace orderless::sim
