#include "chaos/runner.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "codec/codec.h"
#include "contracts/auction.h"
#include "contracts/filestore.h"
#include "contracts/voting.h"
#include "crypto/sha256.h"

namespace orderless::chaos {

namespace {

/// One pre-planned workload submission. The whole plan is derived from the
/// seed before the simulation starts, so fault timing never perturbs the
/// workload RNG stream (crucial for replay and minimization).
struct PlannedTx {
  sim::SimTime at = 0;
  std::size_t client = 0;
  std::string contract;
  std::string function;
  std::vector<crdt::Value> args;
};

std::vector<PlannedTx> PlanWorkload(const Scenario& scenario) {
  Rng rng(scenario.seed * 1000 + 7);
  std::vector<PlannedTx> plan;
  const sim::SimTime step = scenario.duration / (scenario.tx_count + 1);
  for (std::uint32_t i = 0; i < scenario.tx_count; ++i) {
    PlannedTx tx;
    tx.at = step * (i + 1);
    tx.client = rng.NextBelow(scenario.num_clients);
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      tx.contract = "voting";
      tx.function = "Vote";
      tx.args = {crdt::Value("e" + std::to_string(rng.NextBelow(2))),
                 crdt::Value(rng.NextInRange(0, 3)),
                 crdt::Value(std::int64_t{4})};
    } else if (dice < 0.8) {
      tx.contract = "auction";
      tx.function = "Bid";
      tx.args = {crdt::Value("a" + std::to_string(rng.NextBelow(2))),
                 crdt::Value(rng.NextInRange(1, 9))};
    } else if (dice < 0.9) {
      tx.contract = "filestore";
      tx.function = "RegisterFile";
      tx.args = {crdt::Value("f" + std::to_string(rng.NextBelow(5))),
                 crdt::Value("d" + std::to_string(i))};
    } else {
      tx.contract = "filestore";
      tx.function = "DeleteFile";
      tx.args = {crdt::Value("f" + std::to_string(rng.NextBelow(5)))};
    }
    plan.push_back(std::move(tx));
  }
  return plan;
}

/// Mutable per-run state the fault script operates on.
struct RunState {
  harness::OrderlessNet& net;
  InvariantChecker& checker;
  std::vector<core::ByzantineOrgBehavior> org_byzantine;
  std::vector<bool> client_paused;

  explicit RunState(harness::OrderlessNet& n, InvariantChecker& c)
      : net(n),
        checker(c),
        org_byzantine(n.org_count()),
        client_paused(n.client_count(), false) {}
};

void ApplyFault(RunState& state, const FaultEvent& event) {
  harness::OrderlessNet& net = state.net;
  const std::uint32_t n = static_cast<std::uint32_t>(net.org_count());
  switch (event.kind) {
    case FaultKind::kPartitionSplit:
      for (std::uint32_t i = 0; i < event.groups.size(); ++i) {
        const sim::NodeId node =
            i < n ? net.org_node(i) : net.client_node(i - n);
        net.network().SetPartition(node, event.groups[i]);
      }
      break;
    case FaultKind::kPartitionHeal:
      net.network().HealPartitions();
      break;
    case FaultKind::kLinkFaults:
      net.network().SetFaultRates(event.drop, event.duplicate, event.corrupt);
      break;
    case FaultKind::kLinkFaultsClear:
      net.network().SetFaultRates(0.0, 0.0, 0.0);
      break;
    case FaultKind::kLinkFaultPair: {
      sim::LinkFault fault;
      fault.drop_probability = event.drop;
      fault.duplicate_probability = event.duplicate;
      fault.corrupt_probability = event.corrupt;
      net.network().SetLinkFault(net.org_node(event.target),
                                 net.org_node(event.peer), fault);
      net.network().SetLinkFault(net.org_node(event.peer),
                                 net.org_node(event.target), fault);
      break;
    }
    case FaultKind::kLinkFaultPairClear:
      net.network().ClearLinkFault(net.org_node(event.target),
                                   net.org_node(event.peer));
      net.network().ClearLinkFault(net.org_node(event.peer),
                                   net.org_node(event.target));
      break;
    case FaultKind::kOrgCrash:
      if (event.target < n && net.OrgRunning(event.target)) {
        net.CrashOrg(event.target);
      }
      break;
    case FaultKind::kOrgRestart:
      if (event.target < n && !net.OrgRunning(event.target)) {
        if (!net.RestartOrg(event.target)) {
          state.checker.AddViolation(
              "recovery-hash-chain",
              "org " + std::to_string(event.target) +
                  " recovered a chain that fails the persisted cross-check");
        }
        // The replacement organization starts clean: re-install the commit
        // observer and re-apply any still-active Byzantine phase.
        state.checker.InstallObservers();
        if (state.org_byzantine[event.target].active) {
          net.org(event.target)
              .SetByzantine(state.org_byzantine[event.target]);
        }
      }
      break;
    case FaultKind::kOrgByzantineOn:
      if (event.target < n) {
        state.org_byzantine[event.target] = event.org_behavior;
        state.checker.MarkOrgEverByzantine(event.target);
        if (net.OrgRunning(event.target)) {
          net.org(event.target).SetByzantine(event.org_behavior);
        }
      }
      break;
    case FaultKind::kOrgByzantineOff:
      if (event.target < n) {
        state.org_byzantine[event.target] = core::ByzantineOrgBehavior{};
        if (net.OrgRunning(event.target)) {
          net.org(event.target).SetByzantine(core::ByzantineOrgBehavior{});
        }
      }
      break;
    case FaultKind::kClientByzantineOn:
      if (event.target < net.client_count()) {
        state.checker.MarkClientEverByzantine(event.target);
        net.client(event.target).SetByzantine(event.client_behavior);
      }
      break;
    case FaultKind::kClientByzantineOff:
      if (event.target < net.client_count()) {
        net.client(event.target).SetByzantine(core::ByzantineClientBehavior{});
      }
      break;
    case FaultKind::kClientPause:
      if (event.target < net.client_count()) {
        state.client_paused[event.target] = true;
      }
      break;
    case FaultKind::kClientResume:
      if (event.target < net.client_count()) {
        state.client_paused[event.target] = false;
      }
      break;
    case FaultKind::kOverloadBurst:
      if (event.target < n) {
        // Flood the organization with proposals from a node nobody
        // registered: the endorse replies vanish, the pre-planned workload
        // RNG stream is untouched, and admission control must shed to keep
        // its queue bounded.
        const sim::NodeId victim = net.org_node(event.target);
        const sim::NodeId injector = 1000000 + event.target;
        const std::uint32_t txs = std::max<std::uint32_t>(1, event.burst_txs);
        const sim::SimTime window =
            std::max<sim::SimTime>(txs, event.burst_window);
        // Proposals land in waves of ~64 so each wave overwhelms the
        // endorsement backlog ceiling (a uniform spread would be absorbed).
        const std::uint32_t waves = std::max<std::uint32_t>(1, txs / 64);
        for (std::uint32_t i = 0; i < txs; ++i) {
          auto msg = std::make_shared<core::ProposalMsg>();
          msg->proposal.client = injector;
          msg->proposal.contract = "voting";
          msg->proposal.function = "Vote";
          msg->proposal.args = {crdt::Value("e0"),
                                crdt::Value(static_cast<std::int64_t>(i % 4)),
                                crdt::Value(std::int64_t{4})};
          msg->proposal.clock = {injector, i + 1};  // distinct digests
          net.simulation().Schedule(
              window * (i * waves / txs) / waves,
              [&net, victim, injector, msg] {
                net.network().Send(injector, victim, msg);
              });
        }
      }
      break;
  }
}

/// End of the fault window: repair everything so quiescence is reachable no
/// matter which script (or minimized sub-script) ran.
void RestoreAll(RunState& state) {
  state.net.network().HealPartitions();
  state.net.network().SetFaultRates(0.0, 0.0, 0.0);
  state.net.network().ClearLinkFaults();
  for (std::size_t i = 0; i < state.net.org_count(); ++i) {
    if (!state.net.OrgRunning(i)) {
      FaultEvent restart;
      restart.kind = FaultKind::kOrgRestart;
      restart.target = static_cast<std::uint32_t>(i);
      ApplyFault(state, restart);
    }
  }
  for (std::size_t c = 0; c < state.net.client_count(); ++c) {
    state.client_paused[c] = false;
  }
}

}  // namespace

std::vector<std::string> WorkloadObjects() {
  std::vector<std::string> objects;
  for (int e = 0; e < 2; ++e) {
    for (int p = 0; p < 4; ++p) {
      objects.push_back(
          contracts::VotingContract::PartyObject("e" + std::to_string(e), p));
    }
  }
  for (int a = 0; a < 2; ++a) {
    objects.push_back(
        contracts::AuctionContract::AuctionObject("a" + std::to_string(a)));
  }
  objects.push_back(contracts::FileStoreContract::kRegistryObject);
  return objects;
}

ChaosRunResult RunScenario(const Scenario& scenario) {
  return RunScenario(scenario, RunOptions{});
}

ChaosRunResult RunScenario(const Scenario& scenario,
                           const RunOptions& options) {
  harness::OrderlessNetConfig config;
  config.num_orgs = scenario.num_orgs;
  config.num_clients = scenario.num_clients;
  config.policy = scenario.policy;
  config.seed = scenario.seed;
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.5;
  config.org_timing.gossip_interval = sim::Ms(250);
  config.org_timing.gossip_fanout =
      std::min<std::uint32_t>(3, scenario.num_orgs - 1);
  config.org_timing.gossip_rounds = 4;
  config.org_timing.antientropy_interval = sim::Ms(500);
  if (scenario.checkpoints) {
    config.org_timing.checkpoint.interval = scenario.checkpoint_interval;
  }
  config.client_timing.max_attempts = 8;
  config.client_timing.endorse_timeout = sim::Ms(700);
  config.client_timing.commit_timeout = sim::Ms(700);
  config.client_timing.avoid_byzantine = true;
  // Overload layer on: bursts must shed instead of growing queues without
  // bound, and clients retry with backoff + breaker instead of hammering.
  // Ceilings scaled to the small chaos workload (service times are a few
  // hundred microseconds, so legitimate backlogs stay well under these).
  config.org_timing.overload.enabled = true;
  config.org_timing.overload.max_backlog_gossip = sim::Ms(1);
  config.org_timing.overload.max_backlog_endorse = sim::Ms(2);
  config.org_timing.overload.max_backlog_commit = sim::Ms(5);
  config.client_timing.backoff_base = sim::Ms(40);
  config.client_timing.backoff_cap = sim::Sec(1);
  config.client_timing.org_retry_budget = 4;
  config.client_timing.breaker_threshold = 3;
  config.client_timing.breaker_cooldown = sim::Sec(2);
  config.tracer = options.tracer;
  config.threads = options.threads;

  harness::OrderlessNet net(config);
  net.RegisterContract(std::make_shared<contracts::VotingContract>());
  net.RegisterContract(std::make_shared<contracts::AuctionContract>());
  net.RegisterContract(std::make_shared<contracts::FileStoreContract>());
  net.Start();

  InvariantChecker checker(net, scenario);
  checker.InstallObservers();
  RunState state(net, checker);

  // Fault script.
  for (const FaultEvent& event : scenario.events) {
    net.simulation().ScheduleAt(
        event.at, [&state, &event] { ApplyFault(state, event); });
  }
  // Repair barrier between the fault window and quiescence. Scheduled after
  // the fault events, so same-timestamp faults apply first.
  net.simulation().ScheduleAt(scenario.duration,
                              [&state] { RestoreAll(state); });

  // Workload: outcome per planned submission (paused clients skip theirs).
  const std::vector<PlannedTx> plan = PlanWorkload(scenario);
  struct SubmissionRecord {
    std::size_t client = 0;
    bool submitted = false;
    bool done = false;
    core::TxOutcome outcome;
  };
  std::vector<SubmissionRecord> records(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    records[i].client = plan[i].client;
    // Submissions run on the submitting client's lane (their callbacks
    // mutate that submission's record, so the record has a single writer).
    net.simulation().ScheduleAtFor(
        net.client_actor(plan[i].client), plan[i].at,
        [&net, &state, &plan, &records, i] {
      const PlannedTx& tx = plan[i];
      if (state.client_paused[tx.client]) return;
      records[i].submitted = true;
      net.client(tx.client).SubmitModify(
          tx.contract, tx.function, tx.args,
          [&records, i](const core::TxOutcome& outcome) {
            records[i].done = true;
            records[i].outcome = outcome;
          });
    });
  }

  // Continuous invariant: hash chains re-verify every simulated second.
  const sim::SimTime total = scenario.duration + scenario.quiesce;
  for (sim::SimTime t = sim::Sec(1); t <= total; t += sim::Sec(1)) {
    net.simulation().ScheduleAt(t, [&checker] { checker.CheckChains(); });
  }

  net.simulation().RunUntil(total);
  checker.CheckQuiescent(WorkloadObjects());

  ChaosRunResult result;
  result.seed = scenario.seed;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SubmissionRecord& rec = records[i];
    if (!rec.submitted) continue;
    ++result.submitted;
    const bool honest_client = !checker.IsClientEverByzantine(rec.client);
    if (!rec.done) {
      ++result.unresolved;
      if (honest_client) {
        checker.AddViolation("liveness",
                             "submission " + std::to_string(i) +
                                 " from honest client " +
                                 std::to_string(rec.client) +
                                 " never resolved");
      }
      continue;
    }
    if (rec.outcome.committed) {
      ++result.committed;
    } else if (rec.outcome.rejected) {
      ++result.rejected;
    } else {
      ++result.failed;
    }
    // Theorem 8.1 liveness: with no partitions / crashes / link faults in
    // the script and n-q >= f, a bounded-retry honest client must commit.
    if (scenario.liveness_checkable && honest_client &&
        !rec.outcome.committed) {
      checker.AddViolation(
          "liveness", "submission " + std::to_string(i) +
                          " from honest client " + std::to_string(rec.client) +
                          " ended " +
                          (rec.outcome.rejected ? "rejected" : "failed") +
                          ": " + rec.outcome.failure);
    }
  }

  result.commits_observed = checker.commits_observed();
  result.messages_sent = net.network().messages_sent();
  result.bytes_sent = net.network().bytes_sent();
  result.events_processed = net.simulation().events_processed();
  result.violations = checker.violations();
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    const auto& s = net.org(i).phase_stats();
    result.shed_total +=
        s.shed_endorse + s.shed_commit + s.shed_gossip + s.shed_deadline;
    result.busy_sent += s.busy_sent;
    const core::CatchupStats& cu = net.org(i).catchup_stats();
    result.org_catchup.push_back(cu);
    result.ckpt_sealed_total += cu.ckpt_sealed;
    result.ckpt_installed_total += cu.ckpt_installed;
    result.ckpt_rejected_total += cu.ckpt_rejected;
    result.sync_txs_received_total += cu.sync_txs_received;
    result.pruned_records_total += cu.pruned_records;
    result.ckpt_attested_total += cu.ckpt_attested;
    result.ckpt_refused_total += cu.ckpt_refused;
  }

  // Order-sensitive run fingerprint: chain heads hash the exact commit
  // sequence at every organization, so equal fingerprints mean the two runs
  // were bit-identical where it matters.
  codec::Writer w;
  w.PutU64(result.events_processed);
  w.PutU64(result.messages_sent);
  w.PutU64(result.bytes_sent);
  w.PutU64(result.commits_observed);
  w.PutU32(result.submitted);
  w.PutU32(result.committed);
  w.PutU32(result.rejected);
  w.PutU32(result.failed);
  w.PutU64(result.shed_total);
  w.PutU64(result.busy_sent);
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    const auto& ledger = net.org(i).ledger();
    w.PutU64(ledger.committed_valid());
    w.PutU64(ledger.committed_invalid());
    w.PutU64(ledger.log().total_appended());
    w.PutBytes(ledger.log().LastHash().View());
    result.org_chain_heads.push_back(ToHex(ledger.log().LastHash().View()));
    // Checkpoint activity is part of the run's identity too: two replays
    // must seal, install, sync and prune identically (all-zero without
    // checkpoints, so old fingerprints keep their meaning within a binary).
    const core::CatchupStats& cu = result.org_catchup[i];
    w.PutU64(cu.ckpt_sealed);
    w.PutU64(cu.ckpt_sent);
    w.PutU64(cu.ckpt_installed);
    w.PutU64(cu.ckpt_rejected);
    w.PutU64(cu.ckpt_txs_covered);
    w.PutU64(cu.sync_txs_sent);
    w.PutU64(cu.sync_txs_received);
    w.PutU64(cu.pruned_records);
    w.PutU64(cu.recovered_records);
    // Attestation activity, all-zero without checkpoints (same rationale).
    w.PutU64(cu.ckpt_announced);
    w.PutU64(cu.ckpt_attest_sent);
    w.PutU64(cu.ckpt_attest_received);
    w.PutU64(cu.ckpt_attested);
    w.PutU64(cu.ckpt_refused);
  }
  result.fingerprint = crypto::Sha256::Hash(BytesView(w.data())).Prefix64();
  return result;
}

std::string ChaosRunResult::Summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " submitted=" << submitted
      << " committed=" << committed << " rejected=" << rejected
      << " failed=" << failed << " unresolved=" << unresolved
      << " commits_observed=" << commits_observed
      << " shed=" << shed_total << " busy=" << busy_sent
      << " ckpt_sealed=" << ckpt_sealed_total
      << " ckpt_installed=" << ckpt_installed_total
      << " ckpt_rejected=" << ckpt_rejected_total
      << " ckpt_attested=" << ckpt_attested_total
      << " ckpt_refused=" << ckpt_refused_total
      << " sync_rx=" << sync_txs_received_total
      << " pruned=" << pruned_records_total
      << " events=" << events_processed << " msgs=" << messages_sent
      << " fingerprint=" << std::hex << fingerprint << std::dec
      << " violations=" << violations.size();
  return out.str();
}

}  // namespace orderless::chaos
