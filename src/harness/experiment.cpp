#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "contracts/auction.h"
#include "contracts/synthetic.h"
#include "contracts/voting.h"
#include "fabric/apps.h"
#include "fabric/net.h"
#include "fabriccrdt/apps.h"
#include "crypto/sha256.h"
#include "harness/orderless_net.h"
#include "obs/prof.h"
#include "ordered/bidl.h"
#include "ordered/synchotstuff.h"

namespace orderless::harness {

std::string_view SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kOrderless:
      return "OrderlessChain";
    case SystemKind::kFabric:
      return "Fabric";
    case SystemKind::kFabricCrdt:
      return "FabricCRDT";
    case SystemKind::kBidl:
      return "BIDL";
    case SystemKind::kSyncHotStuff:
      return "SyncHotStuff";
  }
  return "?";
}

std::string_view AppName(AppKind kind) {
  switch (kind) {
    case AppKind::kSynthetic:
      return "synthetic";
    case AppKind::kVoting:
      return "voting";
    case AppKind::kAuction:
      return "auction";
  }
  return "?";
}

sim::SimTime BenchSeconds(sim::SimTime fallback) {
  if (const char* env = std::getenv("ORDERLESS_BENCH_SECONDS")) {
    const long v = std::atol(env);
    if (v > 0) return sim::Sec(static_cast<std::uint64_t>(v));
  }
  return fallback;
}

int BenchReps(int fallback) {
  if (const char* env = std::getenv("ORDERLESS_BENCH_REPS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

namespace {

/// One randomly drawn application call (contract/function/args are the same
/// shapes across all five systems by construction).
struct AppCall {
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;
};

AppCall DrawCall(AppKind app, bool read, const WorkloadConfig& w, Rng& rng) {
  AppCall call;
  switch (app) {
    case AppKind::kSynthetic:
      call.contract = "synthetic";
      if (read) {
        call.function = "Read";
        call.args = {crdt::Value(w.obj_count), crdt::Value(w.crdt_type)};
      } else {
        call.function = "Modify";
        call.args = {crdt::Value(w.obj_count), crdt::Value(w.ops_per_obj),
                     crdt::Value(w.crdt_type)};
      }
      break;
    case AppKind::kVoting: {
      call.contract = "voting";
      const std::string election =
          "e" + std::to_string(rng.NextBelow(
                    static_cast<std::uint64_t>(w.elections)));
      const std::int64_t party = static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint64_t>(w.parties)));
      if (read) {
        call.function = "ReadVoteCount";
        call.args = {crdt::Value(election), crdt::Value(party)};
      } else {
        call.function = "Vote";
        call.args = {crdt::Value(election), crdt::Value(party),
                     crdt::Value(w.parties)};
      }
      break;
    }
    case AppKind::kAuction: {
      call.contract = "auction";
      const std::string auction =
          "a" + std::to_string(rng.NextBelow(
                    static_cast<std::uint64_t>(w.auctions)));
      if (read) {
        call.function = "GetHighestBid";
        call.args = {crdt::Value(auction)};
      } else {
        call.function = "Bid";
        call.args = {crdt::Value(auction), crdt::Value(rng.NextInRange(1, 10))};
      }
      break;
    }
  }
  return call;
}

/// Uniform submit interface over the five system implementations.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual sim::Simulation& simulation() = 0;
  virtual std::size_t client_count() const = 0;
  virtual void Submit(std::size_t client, bool read, const AppCall& call,
                      core::TxCallback callback) = 0;
  virtual void SetByzantineOrgs(std::uint32_t count,
                                const core::ByzantineOrgBehavior& behavior) {
    (void)count;
    (void)behavior;
  }
  virtual PhaseBreakdown Breakdown() const = 0;
  /// Overload/retry counters; only OrderlessChain implements the layer.
  virtual RobustnessStats Robustness() const { return {}; }
  /// Event lane of `client`'s simulated node; lane 0 (the sequential
  /// default) for systems without per-actor lanes.
  virtual sim::ActorId ClientActor(std::size_t client) const {
    (void)client;
    return 0;
  }
};

/// The submit path every system shares: each net exposes its simulation and
/// clients whose SubmitRead/SubmitModify take the same arguments.
template <typename Net>
class NetDriver : public Driver {
 public:
  sim::Simulation& simulation() override { return net_->simulation(); }
  std::size_t client_count() const override { return net_->client_count(); }

  void Submit(std::size_t client, bool read, const AppCall& call,
              core::TxCallback callback) override {
    if (read) {
      net_->client(client).SubmitRead(call.contract, call.function, call.args,
                                      std::move(callback));
    } else {
      net_->client(client).SubmitModify(call.contract, call.function,
                                        call.args, std::move(callback));
    }
  }

 protected:
  std::unique_ptr<Net> net_;
};

/// The Fabric-style voting and auction contracts that Fabric, BIDL and Sync
/// HotStuff run.
template <typename Net>
void RegisterFabricApps(Net& net) {
  net.RegisterContract(std::make_shared<fabric::FabricVotingContract>());
  net.RegisterContract(std::make_shared<fabric::FabricAuctionContract>());
}

class OrderlessDriver final : public NetDriver<OrderlessNet> {
 public:
  OrderlessDriver(const ExperimentConfig& config) {
    OrderlessNetConfig net;
    net.num_orgs = config.num_orgs;
    net.num_clients = config.workload.num_clients;
    net.policy = config.policy;
    net.seed = config.seed;
    net.org_timing = config.org_timing;
    net.client_timing = config.client_timing;
    // Large simulations: bound memory, keep only what the metrics need.
    net.org_timing.ledger_options.persist_ops = false;
    net.org_timing.ledger_options.rolling_log = true;
    net.org_timing.ledger_options.track_tx_keys = false;
    // Checkpoints ride the anti-entropy summary/sync path.
    if (net.org_timing.checkpoint.interval > 0) {
      net.org_timing.antientropy_interval = sim::Ms(500);
    }
    net.tracer = config.tracer;
    net.profiler = config.profiler;
    net.threads = config.threads;
    net_ = std::make_unique<OrderlessNet>(net);
    net_->RegisterContract(std::make_shared<contracts::SyntheticContract>());
    net_->RegisterContract(std::make_shared<contracts::VotingContract>());
    net_->RegisterContract(std::make_shared<contracts::AuctionContract>());
    net_->Start();

    if (config.normal_org_load) {
      // Normal-distribution workload per organization (configuration 8):
      // Gaussian weights centred on the middle organization.
      std::vector<double> weights(config.num_orgs);
      const double mid = (config.num_orgs - 1) / 2.0;
      const double sigma = config.num_orgs / 4.0;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        const double d = (static_cast<double>(i) - mid) / sigma;
        weights[i] = std::exp(-0.5 * d * d) + 0.05;
      }
      for (std::size_t i = 0; i < net_->client_count(); ++i) {
        net_->client(i).SetOrgWeights(weights);
      }
    }
    if (config.byzantine_client_fraction > 0) {
      const auto byz_clients = std::min(
          net_->client_count(),
          static_cast<std::size_t>(config.byzantine_client_fraction *
                                   static_cast<double>(net_->client_count())));
      for (std::size_t i = 0; i < byz_clients; ++i) {
        net_->client(i).SetByzantine(config.byzantine_client_behavior);
      }
    }
  }

  void SetByzantineOrgs(std::uint32_t count,
                        const core::ByzantineOrgBehavior& behavior) override {
    for (std::size_t i = 0; i < net_->org_count(); ++i) {
      core::ByzantineOrgBehavior b = behavior;
      b.active = i < count;
      net_->org(i).SetByzantine(b);
    }
  }

  PhaseBreakdown Breakdown() const override {
    double endorse = 0, commit = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < net_->org_count(); ++i) {
      const auto& s = net_->org(i).phase_stats();
      if (s.endorse_count > 0 || s.commit_count > 0) {
        endorse += s.AvgEndorseMs();
        commit += s.AvgCommitMs();
        ++n;
      }
    }
    PhaseBreakdown b;
    if (n > 0) {
      b.phases = {{"P1/Execution", endorse / n}, {"P2/Commit", commit / n}};
    }
    return b;
  }

  sim::ActorId ClientActor(std::size_t client) const override {
    return net_->client_actor(client);
  }

  RobustnessStats Robustness() const override { return net_->Robustness(); }
};


class FabricDriver final : public NetDriver<fabric::FabricNet> {
 public:
  FabricDriver(const ExperimentConfig& config, bool crdt_mode) {
    fabric::FabricNetConfig net;
    net.num_peers = config.num_orgs;
    net.num_clients = config.workload.num_clients;
    net.client.q = config.policy.q;
    net.client.require_matching_rwsets = !crdt_mode;
    net.seed = config.seed;
    net.peer.mode = crdt_mode ? fabric::ValidationMode::kCrdtMerge
                              : fabric::ValidationMode::kMvcc;
    net_ = std::make_unique<fabric::FabricNet>(net);
    if (crdt_mode) {
      net_->RegisterContract(
          std::make_shared<fabriccrdt::FabricCrdtVotingContract>());
      net_->RegisterContract(
          std::make_shared<fabriccrdt::FabricCrdtAuctionContract>());
    } else {
      RegisterFabricApps(*net_);
    }
    net_->Start();
  }

  PhaseBreakdown Breakdown() const override {
    auto& net = *net_;
    double endorse = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < net.peer_count(); ++i) {
      if (net.peer(i).AvgEndorseMs() > 0) {
        endorse += net.peer(i).AvgEndorseMs();
        ++n;
      }
    }
    PhaseBreakdown b;
    b.phases = {{"P1/Endorse", n > 0 ? endorse / n : 0.0},
                {"P2/Consensus", net.peer(0).AvgConsensusMs()},
                {"P3/Commit", 0.5}};
    return b;
  }
};

class BidlDriver final : public NetDriver<ordered::BidlNet> {
 public:
  BidlDriver(const ExperimentConfig& config) {
    ordered::BidlNetConfig net;
    net.num_orgs = config.num_orgs;
    net.num_clients = config.workload.num_clients;
    net.seed = config.seed;
    net_ = std::make_unique<ordered::BidlNet>(net);
    RegisterFabricApps(*net_);
    net_->Start();
  }

  PhaseBreakdown Breakdown() const override {
    auto& net = *net_;
    double sequence = 0, consensus = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < net.org_count(); ++i) {
      if (net.org(i).AvgSequenceMs() > 0) {
        sequence += net.org(i).AvgSequenceMs();
        consensus += net.org(i).AvgConsensusMs();
        ++n;
      }
    }
    PhaseBreakdown b;
    if (n > 0) {
      b.phases = {{"P1/Sequence", sequence / n},
                  {"P2/Consensus", consensus / n},
                  {"P3/Execution", 0.1},
                  {"P4/Commit", 0.05}};
    }
    return b;
  }
};

class HsDriver final : public NetDriver<ordered::HsNet> {
 public:
  HsDriver(const ExperimentConfig& config) {
    ordered::HsNetConfig net;
    net.num_orgs = config.num_orgs;
    net.num_clients = config.workload.num_clients;
    net.seed = config.seed;
    net_ = std::make_unique<ordered::HsNet>(net);
    RegisterFabricApps(*net_);
    net_->Start();
  }

  PhaseBreakdown Breakdown() const override {
    auto& net = *net_;
    double consensus = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < net.org_count(); ++i) {
      if (net.org(i).AvgConsensusMs() > 0) {
        consensus += net.org(i).AvgConsensusMs();
        ++n;
      }
    }
    PhaseBreakdown b;
    if (n > 0) {
      b.phases = {{"P1/Consensus", consensus / n}, {"P2/Commit", 0.1}};
    }
    return b;
  }
};

std::unique_ptr<Driver> MakeDriver(const ExperimentConfig& config) {
  switch (config.system) {
    case SystemKind::kOrderless:
      return std::make_unique<OrderlessDriver>(config);
    case SystemKind::kFabric:
      return std::make_unique<FabricDriver>(config, /*crdt_mode=*/false);
    case SystemKind::kFabricCrdt:
      return std::make_unique<FabricDriver>(config, /*crdt_mode=*/true);
    case SystemKind::kBidl:
      return std::make_unique<BidlDriver>(config);
    case SystemKind::kSyncHotStuff:
      return std::make_unique<HsDriver>(config);
  }
  return nullptr;
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  // Signature-verification counting spans the whole run (setup included):
  // the counters are process-wide relaxed atomics, flipped on only while a
  // profiler is attached so unprofiled runs pay a single predictable branch.
  if (config.profiler) {
    crypto::batch::ResetCounts();
    crypto::batch::SetCountDispatch(true);
  }
  auto driver = MakeDriver(config);
  sim::Simulation& simulation = driver->simulation();
  Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);

  // Byzantine phases (Fig. 8's timeline). Run on the harness lane: flipping
  // org behaviour touches every organization, so it must execute exclusively.
  for (const ByzantinePhase& phase : config.byzantine_phases) {
    const std::uint32_t count = phase.byzantine_orgs;
    Driver* d = driver.get();
    const core::ByzantineOrgBehavior behavior = config.byzantine_org_behavior;
    simulation.ScheduleAt(phase.at, [d, count, behavior] {
      d->SetByzantineOrgs(count, behavior);
    });
  }

  // Uniformly distributed submissions at the requested arrival rate. Drawn
  // up-front (one fixed RNG sequence), then scheduled onto each submitting
  // client's lane with one metrics shard per client — shards are merged in
  // client order after the run, in every mode, so the metrics document does
  // not depend on the thread count.
  const WorkloadConfig& w = config.workload;
  const std::uint64_t total = static_cast<std::uint64_t>(
      w.arrival_tps * sim::ToSec(w.duration));
  struct Planned {
    sim::SimTime at = 0;
    bool read = false;
    std::size_t client = 0;
    AppCall call;
  };
  std::vector<Planned> plan;
  plan.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    Planned p;
    p.at = static_cast<sim::SimTime>(
        (static_cast<double>(i) + rng.NextDouble()) / w.arrival_tps * 1e6);
    p.read = rng.NextDouble() >= w.modify_fraction;
    p.client = rng.NextBelow(driver->client_count());
    p.call = DrawCall(config.app, p.read, w, rng);
    plan.push_back(std::move(p));
  }

  const std::size_t clients = std::max<std::size_t>(driver->client_count(), 1);
  std::vector<ExperimentMetrics> shards(clients);
  std::vector<std::size_t> burst(clients, 0);
  for (const Planned& p : plan) ++burst[p.client];
  for (std::size_t c = 0; c < clients; ++c) {
    if (burst[c] > 0) {
      simulation.ReserveEventsFor(driver->ClientActor(c), burst[c]);
    }
  }

  Driver* d = driver.get();
  for (const Planned& p : plan) {
    ExperimentMetrics* m = &shards[p.client];
    simulation.ScheduleAtFor(
        d->ClientActor(p.client), p.at,
        [d, m, &simulation, client = p.client, read = p.read,
         call = p.call] {
          ++m->submitted;
          d->Submit(client, read, call,
                    [m, read, &simulation](const core::TxOutcome& o) {
                      if (o.committed) {
                        const sim::SimTime now = simulation.now();
                        if (m->first_commit == 0) {
                          m->first_commit = now;
                        }
                        m->last_commit = now;
                        m->per_second.Record(now);
                        m->combined_latency.Record(o.latency);
                        if (read) {
                          ++m->committed_read;
                          m->read_latency.Record(o.latency);
                        } else {
                          ++m->committed_modify;
                          m->modify_latency.Record(o.latency);
                        }
                      } else {
                        ++m->failed;
                        if (o.rejected) ++m->rejected;
                      }
                    });
        });
  }

  simulation.RunUntil(w.duration + w.drain);

  if (config.profiler) {
    crypto::batch::SetCountDispatch(false);
    const crypto::batch::DispatchCounts c = crypto::batch::Counts();
    // Field-copy into the obs-side mirror struct: obs never links crypto.
    obs::CryptoSnapshot snap;
    snap.hashes = c.hashes;
    snap.verify_batches = c.verify_batches;
    snap.verify_sigs = c.verify_sigs;
    config.profiler->SetCrypto(snap);
  }

  ExperimentResult result;
  for (const ExperimentMetrics& shard : shards) {
    result.metrics.MergeFrom(shard);
  }
  result.metrics.robustness = driver->Robustness();
  result.breakdown = driver->Breakdown();
  result.throughput_per_second = result.metrics.per_second.PerSecond(w.duration);
  result.events_processed = simulation.events_processed();
  return result;
}

AveragedPoint RunAveraged(ExperimentConfig config, int reps) {
  std::vector<double> tps, mavg, mp1, mp99, ravg, rp1, rp99, cavg, fail;
  for (int rep = 0; rep < reps; ++rep) {
    config.seed = config.seed * 31 + static_cast<std::uint64_t>(rep) + 1;
    const ExperimentResult r = RunExperiment(config);
    tps.push_back(r.metrics.ThroughputTps());
    mavg.push_back(r.metrics.modify_latency.AverageMs());
    mp1.push_back(r.metrics.modify_latency.PercentileMs(1));
    mp99.push_back(r.metrics.modify_latency.PercentileMs(99));
    ravg.push_back(r.metrics.read_latency.AverageMs());
    rp1.push_back(r.metrics.read_latency.PercentileMs(1));
    rp99.push_back(r.metrics.read_latency.PercentileMs(99));
    cavg.push_back(r.metrics.combined_latency.AverageMs());
    const double denom =
        static_cast<double>(r.metrics.submitted == 0 ? 1 : r.metrics.submitted);
    fail.push_back(static_cast<double>(r.metrics.failed) / denom);
  }
  AveragedPoint p;
  p.throughput_tps = Mean(tps);
  p.modify_avg_ms = Mean(mavg);
  p.modify_p1_ms = Mean(mp1);
  p.modify_p99_ms = Mean(mp99);
  p.read_avg_ms = Mean(ravg);
  p.read_p1_ms = Mean(rp1);
  p.read_p99_ms = Mean(rp99);
  p.combined_avg_ms = Mean(cavg);
  p.failed_fraction = Mean(fail);
  return p;
}

}  // namespace orderless::harness
