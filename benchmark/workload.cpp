#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <limits>
#include <memory>
#include <sstream>

#include "codec/codec.h"
#include "contracts/synthetic.h"
#include "crypto/sha256.h"
#include "harness/orderless_net.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "stats.h"

namespace orderless::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerRep = 11;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Why each workload exists (and which layers it should and should not
// move) is recorded in BENCHMARK.json and benchmark/README.md. The
// submission windows are sized so that one repetition takes a couple of
// host seconds while p99 of every class keeps at least 30 samples beyond
// it.
std::vector<WorkloadSpec> MakeWorkloads() {
  const WorkloadSpec default16{.name = "default16_t1",
                               .orgs = 16,
                               .q = 4,
                               .tps = 3000,
                               .submit_s = 6,
                               .modify_fraction = 0.5};
  WorkloadSpec default16_t4 = default16;
  default16_t4.name = "default16_t4";
  default16_t4.threads = 4;
  // Sequential: at 4 threads this workload kept only 1.7 threads busy, and
  // its wall time followed how often the host took a vCPU away more than
  // its CPU cost (10-16% spread over ten seeds). Two assigns per object
  // rather than four keep a repetition near 4 s, so a run holds several.
  const WorkloadSpec mvreg{.name = "mvreg_hot_t1",
                           .orgs = 8,
                           .q = 2,
                           .tps = 3000,
                           .submit_s = 2.5,
                           .modify_fraction = 0.5,
                           .modify_objects = 2,
                           .ops_per_object = 2,
                           .read_objects = 2,
                           .crdt_type = std::string(contracts::kTypeMVRegister)};
  const WorkloadSpec reads{.name = "reads_byz_t1",
                           .orgs = 16,
                           .q = 4,
                           .tps = 6000,
                           .submit_s = 12,
                           .modify_fraction = 0.05,
                           .modify_objects = 8,
                           .ops_per_object = 1,
                           .read_objects = 8,
                           .byzantine_org0 = true};
  return {default16, default16_t4, mvreg, reads};
}

/// Host-side tallies of one client's submissions. Each client runs on its
/// own event lane, so a shard is only ever touched by one thread.
struct ClientShard {
  std::vector<sim::SimTime> modify_us;
  std::vector<sim::SimTime> read_us;
  std::uint64_t failed = 0;
  sim::SimTime first_commit = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_commit = 0;
  std::vector<std::uint64_t> submit_ns;  // traced runs only
};

/// Everything a repetition builds before its run phase: the network with
/// the plan scheduled onto it. Scheduled events point at it, so it is only
/// ever held by pointer.
struct Deployment {
  std::unique_ptr<harness::OrderlessNet> net;
  std::vector<Submission> plan;
  std::vector<ClientShard> shards;
  std::vector<std::uint8_t> outcomes;  // per submission; one writer each
  bool traced = false;
  std::vector<crdt::Value> modify_args;
  std::vector<crdt::Value> read_args;
  std::string contract = "synthetic";
  std::string modify = "Modify";
  std::string read = "Read";
};

void SubmitOne(Deployment& run, std::uint32_t index) {
  const Submission& s = run.plan[index];
  ClientShard& shard = run.shards[s.client];
  core::Client& client = run.net->client(s.client);
  auto on_outcome = [&run, &shard, index](const core::TxOutcome& o) {
    ++run.outcomes[index];
    if (!o.committed) {
      ++shard.failed;
      return;
    }
    const Submission& sub = run.plan[index];
    const sim::SimTime now = run.net->simulation().now();
    (sub.read ? shard.read_us : shard.modify_us).push_back(now - sub.due);
    shard.first_commit = std::min(shard.first_commit, now);
    shard.last_commit = std::max(shard.last_commit, now);
  };
  const Clock::time_point start = Clock::now();
  if (s.read) {
    client.SubmitRead(run.contract, run.read, run.read_args, on_outcome);
  } else {
    client.SubmitModify(run.contract, run.modify, run.modify_args, on_outcome);
  }
  if (run.traced) {
    shard.submit_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
  }
}

/// Set-up as setup_s times it: build the network, register the contract,
/// start it, and generate and schedule the plan.
std::unique_ptr<Deployment> Deploy(
    const WorkloadSpec& spec, std::uint64_t seed,
    const harness::OrderlessNetConfig& config,
    const std::shared_ptr<const core::SmartContract>& contract, bool traced) {
  auto d = std::make_unique<Deployment>();
  d->traced = traced;
  d->net = std::make_unique<harness::OrderlessNet>(config);
  d->net->RegisterContract(contract);
  d->net->Start();
  if (spec.byzantine_org0) {
    core::ByzantineOrgBehavior byzantine;
    byzantine.active = true;
    d->net->org(0).SetByzantine(byzantine);
  }
  d->plan = MakePlan(spec, seed);
  d->shards.resize(kClients);
  d->outcomes.assign(d->plan.size(), 0);
  d->modify_args = {crdt::Value(spec.modify_objects),
                    crdt::Value(spec.ops_per_object),
                    crdt::Value(spec.crdt_type)};
  d->read_args = {crdt::Value(spec.read_objects), crdt::Value(spec.crdt_type)};
  sim::Simulation& sim = d->net->simulation();
  std::vector<std::size_t> per_client(kClients, 0);
  for (const Submission& s : d->plan) ++per_client[s.client];
  for (std::uint32_t c = 0; c < kClients; ++c) {
    if (per_client[c] > 0) {
      sim.ReserveEventsFor(d->net->client_actor(c), per_client[c]);
    }
  }
  Deployment* run = d.get();
  for (std::uint32_t i = 0; i < d->plan.size(); ++i) {
    sim.ScheduleAtFor(d->net->client_actor(d->plan[i].client), d->plan[i].due,
                      [run, i] { SubmitOne(*run, i); });
  }
  return d;
}

double Ms(sim::SimTime us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Submission> MakePlan(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const auto total = static_cast<std::uint64_t>(spec.tps * spec.submit_s);
  std::vector<Submission> plan(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    plan[i].due = static_cast<sim::SimTime>(
        (static_cast<double>(i) + rng.NextDouble()) / spec.tps * 1e6);
    plan[i].client = static_cast<std::uint32_t>(rng.NextBelow(kClients));
    plan[i].read = rng.NextDouble() >= spec.modify_fraction;
  }
  return plan;
}

std::string InputsDigest(const WorkloadSpec& spec,
                         const std::vector<Submission>& plan) {
  codec::Writer w;
  w.PutString(spec.name);
  for (const std::int64_t v :
       {std::int64_t{spec.orgs}, std::int64_t{spec.q}, spec.modify_objects,
        spec.ops_per_object, spec.read_objects, std::int64_t{kClients},
        std::int64_t{spec.threads}, std::int64_t{spec.byzantine_org0}}) {
    w.PutU64(static_cast<std::uint64_t>(v));
  }
  w.PutString(spec.crdt_type);
  for (const Submission& s : plan) {
    w.PutU64(s.due);
    w.PutU64(s.client);
    w.PutU64(s.read);
  }
  return crypto::Sha256::Hash(BytesView(w.data())).Hex();
}

double RepResult::at(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

std::string RepResult::text(const std::string& key) const {
  const auto it = texts.find(key);
  return it == texts.end() ? std::string() : it->second;
}

std::string RepResult::Serialize() const {
  std::string out;
  char buf[64];
  for (const auto& [key, value] : values) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += "v " + key + " " + buf + "\n";
  }
  for (const auto& [key, text] : texts) out += "t " + key + " " + text + "\n";
  for (const std::string& failure : failures) out += "f " + failure + "\n";
  return out;
}

bool RepResult::Parse(const std::string& text, RepResult& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[1] != ' ') return false;
    const std::string rest = line.substr(2);
    if (line[0] == 'f') {
      out.failures.push_back(rest);
      continue;
    }
    const std::size_t space = rest.find(' ');
    if (space == std::string::npos) return false;
    const std::string key = rest.substr(0, space);
    const std::string value = rest.substr(space + 1);
    if (line[0] == 'v') {
      out.values[key] = std::strtod(value.c_str(), nullptr);
    } else if (line[0] == 't') {
      out.texts[key] = value;
    } else {
      return false;
    }
  }
  return true;
}

RepResult RunRep(const WorkloadSpec& spec, std::uint64_t seed, Trace trace,
                 const std::function<void()>& pause) {
  RepResult r;
  const bool traced = trace != Trace::kOff;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Profiler> profiler;
  ContractTally contract_tally;
  if (traced) {
    obs::TracerConfig trace_config;
    if (trace == Trace::kCriticalPath) {
      trace_config.kind_mask = CriticalPathKindMask();
    }
    tracer = std::make_unique<obs::Tracer>(trace_config);
    profiler = std::make_unique<obs::Profiler>();
    crypto::batch::ResetCounts();
    crypto::batch::SetCountDispatch(true);
  }

  harness::OrderlessNetConfig config;
  config.num_orgs = spec.orgs;
  config.num_clients = kClients;
  config.policy = core::EndorsementPolicy{spec.q, spec.orgs};
  // The seed draws the inputs (the plan); the deployment's own randomness
  // (gossip phases and peers, network jitter, org picks) stays fixed, as it
  // would for one installation serving different request streams.
  config.seed = kDeploymentSeed;
  config.threads = spec.threads;
  config.tracer = tracer.get();
  config.profiler = profiler.get();
  // The harness's large-run ledger options.
  config.org_timing.ledger_options.persist_ops = false;
  config.org_timing.ledger_options.rolling_log = true;
  config.org_timing.ledger_options.track_tx_keys = false;
  if (spec.byzantine_org0) {
    // Clients stop choosing an org once it misbehaved and retry elsewhere,
    // so the faulty org costs latency but no submission fails.
    config.client_timing.avoid_byzantine = true;
    config.client_timing.max_attempts = 3;
  }
  std::shared_ptr<const core::SmartContract> contract =
      std::make_shared<contracts::SyntheticContract>();
  if (traced) contract = TimeContract(std::move(contract), contract_tally);

  // Set-up is timed several times and reported as the median: the first
  // build in a fresh process also faults in all its memory, which swings
  // widely on a shared host, while later builds reuse the freed heap. Each
  // build is discarded before the next; the last one runs. A traced
  // repetition builds once, since its tracer must see a single network.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < (traced ? 1 : kSetupsPerRep); ++i) {
    deployment.reset();
    const Clock::time_point setup_start = Clock::now();
    deployment = Deploy(spec, seed, config, contract, traced);
    setup_s.push_back(SecondsSince(setup_start));
  }
  r.values["setup_s"] = QuartilesOf(setup_s).median;
  harness::OrderlessNet* net = deployment->net.get();
  const std::vector<Submission>& plan = deployment->plan;
  const std::vector<ClientShard>& shards = deployment->shards;
  const std::vector<std::uint8_t>& outcomes = deployment->outcomes;
  sim::Simulation& sim = net->simulation();

  // The last org is always honest: its commits feed the replays.
  const std::size_t observed = spec.orgs - 1;
  std::vector<Bytes> captured;
  if (traced) {
    net->org(observed).SetCommitObserver(
        [&captured](const core::Transaction& tx, core::TxVerdict verdict) {
          if (verdict != core::TxVerdict::kValid) return;
          codec::Writer w;
          tx.Encode(w);
          captured.push_back(w.Take());
        });
  }

  // Equal slices of the submission window; the last one also runs the
  // drain, which costs little host time.
  const auto window = static_cast<sim::SimTime>(spec.submit_s * 1e6);
  double run_s = 0;
  double cpu_s = 0;
  const std::uint64_t allocs_start = AllocCount();
  for (int slice = 1; slice <= kRunSlices; ++slice) {
    pause();
    const sim::SimTime until =
        slice == kRunSlices ? window + kDrain : window * slice / kRunSlices;
    const double cpu_start = ProcessCpuSeconds();
    if (traced) SetAllocCounting(true);
    const Clock::time_point start = Clock::now();
    sim.RunUntil(until);
    run_s += SecondsSince(start);
    SetAllocCounting(false);
    cpu_s += ProcessCpuSeconds() - cpu_start;
  }
  pause();
  const std::uint64_t allocs = AllocCount() - allocs_start;
  crypto::batch::SetCountDispatch(false);

  // Outputs, merged in client order so they do not depend on the thread
  // count.
  std::vector<sim::SimTime> modify_us, read_us;
  std::uint64_t failed = 0;
  sim::SimTime first_commit = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_commit = 0;
  for (const ClientShard& shard : shards) {
    modify_us.insert(modify_us.end(), shard.modify_us.begin(),
                     shard.modify_us.end());
    read_us.insert(read_us.end(), shard.read_us.begin(), shard.read_us.end());
    failed += shard.failed;
    first_commit = std::min(first_commit, shard.first_commit);
    last_commit = std::max(last_commit, shard.last_commit);
  }
  const std::size_t missing = static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](std::uint8_t n) { return n != 1; }));
  if (missing > 0) {
    r.failures.push_back(std::to_string(missing) +
                         " submissions did not get exactly one outcome");
  }

  // Fingerprint of everything simulated: any change in protocol behaviour,
  // at any thread count or with tracing on, changes it.
  codec::Writer fp;
  fp.PutU64(sim.events_processed());
  fp.PutU64(net->network().messages_sent());
  fp.PutU64(net->network().bytes_sent());
  fp.PutU64(net->network().messages_dropped());
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    const ledger::Ledger& ledger = net->org(i).ledger();
    fp.PutRaw(ledger.log().LastHash().View());
    fp.PutU64(ledger.committed_valid());
    fp.PutU64(ledger.committed_invalid());
  }
  for (const ClientShard& shard : shards) {
    fp.PutU64(shard.failed);
    for (const auto* samples : {&shard.modify_us, &shard.read_us}) {
      fp.PutU64(samples->size());
      for (const sim::SimTime t : *samples) fp.PutU64(t);
    }
  }
  r.texts["fingerprint"] = crypto::Sha256::Hash(BytesView(fp.data())).Hex();

  const double committed =
      static_cast<double>(modify_us.size() + read_us.size());
  r.values["submitted"] = static_cast<double>(plan.size());
  r.values["failed"] = static_cast<double>(failed);
  r.values["run_s"] = run_s;
  r.values["host_tx_per_s"] = committed / run_s;
  r.values["cpu_us_per_tx"] = cpu_s * 1e6 / committed;
  r.values["sim_tps"] =
      last_commit > first_commit
          ? committed / sim::ToSec(last_commit - first_commit)
          : 0.0;
  std::sort(modify_us.begin(), modify_us.end());
  std::sort(read_us.begin(), read_us.end());
  for (const auto& [cls, samples] :
       {std::pair{"modify", &modify_us}, std::pair{"read", &read_us}}) {
    const std::string prefix = std::string("sim_") + cls;
    r.values[prefix + "_samples"] = static_cast<double>(samples->size());
    if (samples->empty()) {
      r.failures.push_back(std::string("no committed ") + cls + " samples");
      continue;
    }
    r.values[prefix + "_p50_ms"] = Ms(NearestRank(*samples, 50));
    r.values[prefix + "_p99_ms"] = Ms(NearestRank(*samples, 99));
    r.values[prefix + "_beyond_p99"] =
        static_cast<double>(SamplesBeyond(samples->size(), 99));
  }
  if (!traced) return r;

  // ---- Per-layer values (traced runs only). ----
  const crypto::batch::DispatchCounts crypto_counts = crypto::batch::Counts();
  const double events = static_cast<double>(sim.events_processed());
  r.values["sim.events_per_tx"] = events / committed;
  r.values["sim.lane_busy_s"] =
      static_cast<double>(profiler->total_busy_ns()) / 1e9;
  r.values["sim.barrier_wait_share"] =
      profiler->epoch_wall_ns() == 0
          ? 0.0
          : static_cast<double>(profiler->barrier_wait_ns()) /
                static_cast<double>(profiler->epoch_wall_ns());
  r.values["sim.utilization"] = profiler->Utilization();
  obs::MetricsRegistry prof_metrics;
  profiler->Fill(prof_metrics);
  r.values["sim.active_lanes_per_epoch"] =
      prof_metrics.gauge("prof.active_lanes_avg").value();
  r.values["sim.epochs"] = static_cast<double>(profiler->epochs());

  const sim::Network& network = net->network();
  r.values["net.msgs_per_tx"] =
      static_cast<double>(network.messages_sent()) / committed;
  r.values["net.kb_per_tx"] =
      static_cast<double>(network.bytes_sent()) / 1024.0 / committed;
  r.values["net.drop_ratio"] =
      network.messages_sent() == 0
          ? 0.0
          : static_cast<double>(network.messages_dropped()) /
                static_cast<double>(network.messages_sent());

  std::vector<std::uint64_t> submit_ns;
  for (const ClientShard& shard : shards) {
    submit_ns.insert(submit_ns.end(), shard.submit_ns.begin(),
                     shard.submit_ns.end());
  }
  std::sort(submit_ns.begin(), submit_ns.end());
  r.values["client.submit_us_p50"] =
      static_cast<double>(NearestRank(submit_ns, 50)) / 1000.0;
  std::uint64_t outcome_total = 0;
  for (const std::uint8_t n : outcomes) outcome_total += n;
  r.values["client.outcomes_per_submit"] =
      static_cast<double>(outcome_total) / static_cast<double>(plan.size());

  const auto invokes = contract_tally.invokes.load(std::memory_order_relaxed);
  r.values["contracts.invokes_per_tx"] =
      static_cast<double>(invokes) / committed;
  r.values["contracts.invoke_us"] =
      invokes == 0 ? 0.0
                   : static_cast<double>(contract_tally.ns.load(
                         std::memory_order_relaxed)) /
                         1000.0 / static_cast<double>(invokes);

  r.values["crypto.verify_sigs_per_tx"] =
      static_cast<double>(crypto_counts.verify_sigs) / committed;
  r.values["crypto.hashes_per_tx"] =
      static_cast<double>(crypto_counts.hashes) / committed;

  std::size_t store_rows = 0;
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    store_rows += net->org(i).mutable_ledger().store().ApproximateCount();
  }
  r.values["ledger.store_rows"] = static_cast<double>(store_rows);

  r.values["obs.trace_events_per_tx"] =
      static_cast<double>(tracer->events().size()) / committed;
  r.values["obs.trace_dropped"] = static_cast<double>(tracer->dropped());
  r.values["proc.allocs_per_tx"] = static_cast<double>(allocs) / committed;

  AddCriticalPathLegs(*tracer, r);

  ReplayInputs replay;
  replay.committed = &captured;
  replay.pki = &net->pki();
  for (std::size_t i = 0; i < net->org_count(); ++i) {
    replay.org_keys.insert(net->org(i).key());
  }
  replay.policy = config.policy;
  replay.ledger_options = config.org_timing.ledger_options;
  replay.observed = &net->org(observed).ledger().cache();
  replay.seed = seed;
  ReplayLayers(replay, r);
  return r;
}

}  // namespace orderless::bench
