// Tier-1 gate for the parallel simulation engine: running the same workload
// at --threads 1/2/4 must be *bit-identical* — same chaos fingerprints and
// chain heads, same event counts, same metrics documents, same exported
// trace bytes. Any divergence means an event executed outside the canonical
// (time, dst, src, seq) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "contracts/voting.h"
#include "core/messages.h"
#include "harness/experiment.h"
#include "harness/orderless_net.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace orderless {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem;
}

class ChaosThreads : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosThreads, FingerprintIdenticalAcrossThreadCounts) {
  const chaos::Scenario scenario = chaos::GenerateScenario(GetParam());
  chaos::RunOptions options;
  options.threads = 1;
  const chaos::ChaosRunResult baseline = chaos::RunScenario(scenario, options);
  EXPECT_TRUE(baseline.ok()) << baseline.Summary();
  for (unsigned threads : {2u, 4u, 8u}) {
    options.threads = threads;
    const chaos::ChaosRunResult run = chaos::RunScenario(scenario, options);
    EXPECT_EQ(run.fingerprint, baseline.fingerprint)
        << "seed=" << GetParam() << " threads=" << threads;
    EXPECT_EQ(run.org_chain_heads, baseline.org_chain_heads)
        << "seed=" << GetParam() << " threads=" << threads;
    EXPECT_EQ(run.events_processed, baseline.events_processed)
        << "seed=" << GetParam() << " threads=" << threads;
    EXPECT_EQ(run.committed, baseline.committed);
    EXPECT_EQ(run.commits_observed, baseline.commits_observed);
    EXPECT_EQ(run.messages_sent, baseline.messages_sent);
    EXPECT_EQ(run.bytes_sent, baseline.bytes_sent);
  }
}

// A handful of generated scenarios covering crashes, partitions, Byzantine
// organizations and overload bursts (whatever the seeds draw).
INSTANTIATE_TEST_SUITE_P(Seeds, ChaosThreads,
                         ::testing::Values(1u, 7u, 42u, 1337u));

// Checkpoint sealing, snapshot install and storage pruning all run on the
// simulation hot path; they too must be bit-identical at any thread count.
TEST(ParallelCheckpoint, PresetScenariosIdenticalAcrossThreadCounts) {
  for (const chaos::Scenario& scenario :
       {chaos::MakeLongPartitionScenario(5),
        chaos::MakeCrashRestartScenario(5)}) {
    chaos::RunOptions options;
    options.threads = 1;
    const chaos::ChaosRunResult baseline =
        chaos::RunScenario(scenario, options);
    EXPECT_TRUE(baseline.ok()) << baseline.Summary();
    // Vacuity guard: the run must actually have exercised the catch-up path.
    EXPECT_GT(baseline.ckpt_sealed_total, 0u) << scenario.Describe();
    EXPECT_GT(baseline.ckpt_installed_total, 0u) << scenario.Describe();
    for (unsigned threads : {2u, 4u, 8u}) {
      options.threads = threads;
      const chaos::ChaosRunResult run = chaos::RunScenario(scenario, options);
      EXPECT_EQ(run.fingerprint, baseline.fingerprint)
          << scenario.Describe() << " threads=" << threads;
      EXPECT_EQ(run.org_chain_heads, baseline.org_chain_heads)
          << scenario.Describe() << " threads=" << threads;
      EXPECT_EQ(run.events_processed, baseline.events_processed)
          << scenario.Describe() << " threads=" << threads;
      EXPECT_EQ(run.ckpt_installed_total, baseline.ckpt_installed_total);
      EXPECT_EQ(run.pruned_records_total, baseline.pruned_records_total);
    }
  }
}

// Quorum attestation adds an announce/attest/promote round-trip and active
// checkpoint-layer adversaries (forged digests, per-peer equivocation,
// dishonest attestation, stale replay) to the hot path; the byzantine-catchup
// preset must still be bit-identical at any thread count.
TEST(ParallelCheckpoint, ByzantineCatchupIdenticalAcrossThreadCounts) {
  const chaos::Scenario scenario = chaos::MakeByzantineCatchupScenario(1);
  chaos::RunOptions options;
  options.threads = 1;
  const chaos::ChaosRunResult baseline = chaos::RunScenario(scenario, options);
  EXPECT_TRUE(baseline.ok()) << baseline.Summary();
  EXPECT_GT(baseline.ckpt_attested_total, 0u) << scenario.Describe();
  EXPECT_GT(baseline.ckpt_refused_total, 0u) << scenario.Describe();
  for (unsigned threads : {2u, 4u, 8u}) {
    options.threads = threads;
    const chaos::ChaosRunResult run = chaos::RunScenario(scenario, options);
    EXPECT_EQ(run.fingerprint, baseline.fingerprint)
        << scenario.Describe() << " threads=" << threads;
    EXPECT_EQ(run.org_chain_heads, baseline.org_chain_heads)
        << scenario.Describe() << " threads=" << threads;
    EXPECT_EQ(run.events_processed, baseline.events_processed)
        << scenario.Describe() << " threads=" << threads;
    EXPECT_EQ(run.ckpt_attested_total, baseline.ckpt_attested_total);
    EXPECT_EQ(run.ckpt_refused_total, baseline.ckpt_refused_total);
    EXPECT_EQ(run.ckpt_rejected_total, baseline.ckpt_rejected_total);
  }
}

struct ExperimentArtifacts {
  std::uint64_t events_processed = 0;
  std::string metrics_json;
  std::string chrome_trace;
  std::string jsonl_trace;
};

ExperimentArtifacts RunTracedExperiment(unsigned threads,
                                        bool checkpoints = false) {
  obs::Tracer tracer{obs::TracerConfig{}};

  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kOrderless;
  config.num_orgs = 8;
  config.policy = core::EndorsementPolicy{3, 8};
  config.workload.arrival_tps = 400;
  config.workload.duration = sim::Sec(2);
  config.workload.num_clients = 40;
  config.seed = 11;
  config.tracer = &tracer;
  config.threads = threads;
  if (checkpoints) config.checkpoint_interval = sim::Ms(400);

  const harness::ExperimentResult result = harness::RunExperiment(config);

  ExperimentArtifacts artifacts;
  artifacts.events_processed = result.events_processed;

  obs::MetricsRegistry registry;
  result.metrics.FillRegistry(registry);
  obs::FillTraceMetrics(tracer, registry);
  const std::string tag =
      (checkpoints ? "ckpt_t" : "t") + std::to_string(threads);
  const std::string metrics_path = TempPath("pdt_metrics_" + tag + ".json");
  const std::string trace_path = TempPath("pdt_trace_" + tag + ".json");
  const std::string jsonl_path = TempPath("pdt_trace_" + tag + ".jsonl");
  EXPECT_TRUE(registry.WriteJsonFile("experiment_metrics", metrics_path));
  EXPECT_TRUE(obs::WriteChromeTrace(tracer, trace_path));
  EXPECT_TRUE(obs::WriteJsonl(tracer, jsonl_path));
  artifacts.metrics_json = ReadFile(metrics_path);
  artifacts.chrome_trace = ReadFile(trace_path);
  artifacts.jsonl_trace = ReadFile(jsonl_path);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(jsonl_path.c_str());
  return artifacts;
}

TEST(ParallelExperiment, TracedRunBitIdenticalAcrossThreadCounts) {
  const ExperimentArtifacts baseline = RunTracedExperiment(1);
  ASSERT_FALSE(baseline.jsonl_trace.empty());
  for (unsigned threads : {2u, 4u, 8u}) {
    const ExperimentArtifacts run = RunTracedExperiment(threads);
    EXPECT_EQ(run.events_processed, baseline.events_processed)
        << "threads=" << threads;
    // Full documents, compared as bytes: the metrics registry covers every
    // latency sample and counter, the trace exports cover every recorded
    // event in order.
    EXPECT_EQ(run.metrics_json, baseline.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(run.chrome_trace, baseline.chrome_trace)
        << "threads=" << threads;
    EXPECT_EQ(run.jsonl_trace, baseline.jsonl_trace) << "threads=" << threads;
  }
}

// Same gate with checkpoints enabled on the experiment path: the sealed
// digests, catchup metrics and ckpt_* trace events must all come out
// byte-identical regardless of worker count.
TEST(ParallelExperiment, CheckpointTracedRunBitIdenticalAcrossThreadCounts) {
  const ExperimentArtifacts baseline =
      RunTracedExperiment(1, /*checkpoints=*/true);
  ASSERT_FALSE(baseline.jsonl_trace.empty());
  // Vacuity guard: seals must show up in the exported trace and metrics.
  EXPECT_NE(baseline.jsonl_trace.find("ckpt_seal"), std::string::npos);
  EXPECT_NE(baseline.metrics_json.find("catchup.ckpt_sealed"),
            std::string::npos);
  for (unsigned threads : {2u, 4u}) {
    const ExperimentArtifacts run =
        RunTracedExperiment(threads, /*checkpoints=*/true);
    EXPECT_EQ(run.events_processed, baseline.events_processed)
        << "threads=" << threads;
    EXPECT_EQ(run.metrics_json, baseline.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(run.chrome_trace, baseline.chrome_trace)
        << "threads=" << threads;
    EXPECT_EQ(run.jsonl_trace, baseline.jsonl_trace) << "threads=" << threads;
  }
}

// Shared transactions' cached verdicts and tracing must stay outcome-neutral
// under the worker pool too, not just sequentially (obs_determinism_test
// covers threads=1). At 4 threads org lanes race to fill each verdict; the
// run must still equal the sequential one, which fills them in canonical
// order.
TEST(ParallelExperiment, MemoAndTracingStayOutcomeNeutralAt4Threads) {
  const chaos::Scenario scenario = chaos::GenerateScenario(23);
  chaos::RunOptions plain;
  plain.threads = 4;
  const chaos::ChaosRunResult baseline = chaos::RunScenario(scenario, plain);

  chaos::RunOptions sequential_options;
  sequential_options.threads = 1;
  const chaos::ChaosRunResult sequential =
      chaos::RunScenario(scenario, sequential_options);
  EXPECT_EQ(sequential.fingerprint, baseline.fingerprint);
  EXPECT_EQ(sequential.org_chain_heads, baseline.org_chain_heads);

  obs::Tracer tracer{obs::TracerConfig{}};
  chaos::RunOptions traced = plain;
  traced.tracer = &tracer;
  const chaos::ChaosRunResult observed = chaos::RunScenario(scenario, traced);
  EXPECT_EQ(observed.fingerprint, baseline.fingerprint);
  EXPECT_EQ(observed.org_chain_heads, baseline.org_chain_heads);
  EXPECT_GT(tracer.events().size(), 0u);
}

// Conflict-ordering gate: transactions writing the same objects must commit
// in canonical event order on the parallel engine. Every vote in one
// election writes all of its party maps, so the eight votes below conflict
// pairwise whenever they overlap in flight; each org lane must still append
// them in the exact block sequence (and chain) the sequential engine
// produces.
TEST(ParallelPipeline, SameObjectCommitsStayInCanonicalOrder) {
  const auto run = [](unsigned threads, obs::Tracer* tracer) {
    harness::OrderlessNetConfig config;
    config.num_orgs = 4;
    config.num_clients = 4;
    config.policy = core::EndorsementPolicy{2, 4};
    config.net.one_way_latency = sim::Ms(5);
    config.net.jitter_stddev_ms = 0.3;
    config.org_timing.gossip_interval = sim::Ms(200);
    config.org_timing.gossip_fanout = 3;
    config.seed = 777;
    config.threads = threads;
    config.tracer = tracer;
    harness::OrderlessNet net(config);
    net.RegisterContract(std::make_shared<contracts::VotingContract>());
    net.Start();
    // Two bursts: every client votes in the same election (same write set:
    // all four party maps of "e"), and the bursts land close enough that the
    // commits overlap in flight at every organization.
    for (int round = 0; round < 2; ++round) {
      for (std::size_t c = 0; c < net.client_count(); ++c) {
        net.client(c).SubmitModify(
            "voting", "Vote",
            {crdt::Value("e"), crdt::Value(static_cast<std::int64_t>(c)),
             crdt::Value(std::int64_t{4})},
            [](const core::TxOutcome&) {});
      }
      net.simulation().RunUntil(sim::Sec(2 * (round + 1)));
    }
    net.simulation().RunUntil(sim::Sec(12));
    std::vector<std::vector<crypto::Digest>> order(net.org_count());
    for (std::size_t i = 0; i < net.org_count(); ++i) {
      EXPECT_EQ(net.org(i).ledger().committed_valid(), 8u) << "org " << i;
      for (const ledger::Block& b : net.org(i).ledger().log().blocks()) {
        order[i].push_back(b.tx_digest);
      }
    }
    return order;
  };

  const auto sequential = run(1, nullptr);
  obs::Tracer tracer{obs::TracerConfig{}};
  const auto parallel = run(4, &tracer);
  EXPECT_EQ(parallel, sequential);

  // Vacuity guard: the parallel run really had same-object commits in flight
  // together — some org admitted a commit before its previous admission was
  // appended — so the ordering claim is not satisfied by the transactions
  // never overlapping.
  struct Admission {
    sim::SimTime admitted = 0;
    sim::SimTime appended = 0;
  };
  std::map<std::uint32_t, std::map<std::uint64_t, Admission>> by_org;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::EventKind::kPipeAdmit) {
      by_org[e.actor][e.tx].admitted = e.ts;
    } else if (e.kind == obs::EventKind::kLedgerAppend) {
      by_org[e.actor][e.tx].appended = e.ts;
    }
  }
  std::size_t overlapping = 0;
  for (const auto& [org, admissions] : by_org) {
    for (const auto& [tx, a] : admissions) {
      for (const auto& [other_tx, b] : admissions) {
        if (tx != other_tx && a.admitted < b.admitted &&
            b.admitted < a.appended) {
          ++overlapping;
        }
      }
    }
  }
  EXPECT_GT(overlapping, 0u);
}

// Restart then sync, on the parallel engine: a restarted org reloads its
// committed bodies from the ledger, and every anti-entropy reply it sends
// shares those same objects. Peers that missed some of them (gossip is off
// and they were not in those commit sets) all sync from the restarted org
// at the same simulated instant (zero jitter, negligible serialization), so
// several lanes validate the same reloaded objects in the same epochs.
// Recovery seals each reloaded body first; the TSan job runs this test to
// prove those validation reads never write.
TEST(ParallelRecovery, ReloadedBodiesSyncToTwoPeersAtOnce) {
  using Chain = std::vector<crypto::Digest>;
  const auto valid_ids = [](const core::Organization& org) {
    std::set<crypto::Digest> ids;
    for (const ledger::Block& b : org.ledger().log().blocks()) {
      if (b.valid) ids.insert(b.tx_digest);
    }
    return ids;
  };
  const auto run = [&valid_ids](unsigned threads) {
    harness::OrderlessNetConfig config;
    config.num_orgs = 4;
    config.num_clients = 4;
    config.policy = core::EndorsementPolicy{2, 4};
    config.net.one_way_latency = sim::Ms(5);
    config.net.jitter_stddev_ms = 0;
    config.net.bandwidth_bps = 1e15;
    config.org_timing.gossip_fanout = 0;
    // Anti-entropy on (so recovery reloads bodies and peers answer
    // summaries), but its own timer never fires inside this run.
    config.org_timing.antientropy_interval = sim::Sec(1000);
    config.seed = 31;
    config.threads = threads;
    harness::OrderlessNet net(config);
    net.RegisterContract(std::make_shared<contracts::VotingContract>());
    net.Start();
    // Enough commits that each peer's share of the sync keeps its lane busy
    // for a while in every epoch, so the worker threads run lanes at once.
    for (std::int64_t vote = 0; vote < 120; ++vote) {
      net.client(static_cast<std::size_t>(vote) % net.client_count())
          .SubmitModify("voting", "Vote",
                        {crdt::Value("e"), crdt::Value(vote % 4),
                         crdt::Value(std::int64_t{4})},
                        [](const core::TxOutcome&) {});
    }
    net.simulation().RunUntil(sim::Sec(5));

    // The restarted org: one that committed the most; the peers: every org
    // that is missing something it has.
    std::size_t restarted = 0;
    for (std::size_t i = 1; i < net.org_count(); ++i) {
      if (net.org(i).ledger().committed_valid() >
          net.org(restarted).ledger().committed_valid()) {
        restarted = i;
      }
    }
    const std::set<crypto::Digest> have = valid_ids(net.org(restarted));
    std::vector<std::size_t> peers;
    for (std::size_t i = 0; i < net.org_count(); ++i) {
      const std::set<crypto::Digest> own = valid_ids(net.org(i));
      if (i != restarted &&
          !std::includes(own.begin(), own.end(), have.begin(), have.end())) {
        peers.push_back(i);
      }
    }
    EXPECT_GE(peers.size(), 2u) << "vacuous: too few peers missed a commit";

    EXPECT_TRUE(net.RestartOrg(restarted));
    for (const std::size_t peer : peers) {
      auto summary = std::make_shared<core::SummaryMsg>();
      summary->tx_count = have.size();
      net.network().Send(net.org_node(restarted), net.org_node(peer),
                         summary);
    }
    net.simulation().RunUntil(sim::Sec(10));

    std::vector<Chain> chains;
    for (std::size_t i = 0; i < net.org_count(); ++i) {
      const std::set<crypto::Digest> own = valid_ids(net.org(i));
      EXPECT_TRUE(
          std::includes(own.begin(), own.end(), have.begin(), have.end()))
          << "org " << i << " did not catch up, threads " << threads;
      Chain chain;
      for (const ledger::Block& b : net.org(i).ledger().log().blocks()) {
        chain.push_back(b.tx_digest);
      }
      chains.push_back(std::move(chain));
    }
    return chains;
  };

  const std::vector<Chain> sequential = run(1);
  for (const unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run(threads), sequential) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace orderless
