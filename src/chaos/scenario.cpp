#include "chaos/scenario.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"

namespace orderless::chaos {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartitionSplit: return "partition-split";
    case FaultKind::kPartitionHeal: return "partition-heal";
    case FaultKind::kLinkFaults: return "link-faults";
    case FaultKind::kLinkFaultsClear: return "link-faults-clear";
    case FaultKind::kLinkFaultPair: return "link-fault-pair";
    case FaultKind::kLinkFaultPairClear: return "link-fault-pair-clear";
    case FaultKind::kOrgCrash: return "org-crash";
    case FaultKind::kOrgRestart: return "org-restart";
    case FaultKind::kOrgByzantineOn: return "org-byzantine-on";
    case FaultKind::kOrgByzantineOff: return "org-byzantine-off";
    case FaultKind::kClientByzantineOn: return "client-byzantine-on";
    case FaultKind::kClientByzantineOff: return "client-byzantine-off";
    case FaultKind::kClientPause: return "client-pause";
    case FaultKind::kClientResume: return "client-resume";
    case FaultKind::kOverloadBurst: return "overload-burst";
  }
  return "unknown";
}

std::string FaultEvent::Describe() const {
  std::ostringstream out;
  out << "t=" << sim::ToMs(at) << "ms " << FaultKindName(kind);
  switch (kind) {
    case FaultKind::kPartitionSplit: {
      out << " groups=[";
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (i) out << ",";
        out << groups[i];
      }
      out << "]";
      break;
    }
    case FaultKind::kLinkFaults:
      out << " drop=" << drop << " dup=" << duplicate << " corrupt=" << corrupt;
      break;
    case FaultKind::kLinkFaultPair:
      out << " orgs=" << target << "<->" << peer << " drop=" << drop;
      break;
    case FaultKind::kLinkFaultPairClear:
      out << " orgs=" << target << "<->" << peer;
      break;
    case FaultKind::kOrgCrash:
    case FaultKind::kOrgRestart:
      out << " org=" << target;
      break;
    case FaultKind::kOrgByzantineOn:
      out << " org=" << target
          << " ignore_proposal=" << org_behavior.ignore_proposal_prob
          << " wrong_endorse=" << org_behavior.wrong_endorse_prob
          << " ignore_commit=" << org_behavior.ignore_commit_prob
          << " suppress_gossip=" << (org_behavior.suppress_gossip ? 1 : 0)
          << (org_behavior.forge_checkpoint ? " forge_ckpt" : "")
          << (org_behavior.equivocate_checkpoint ? " equivocate_ckpt" : "")
          << (org_behavior.dishonest_attest ? " dishonest_attest" : "")
          << (org_behavior.withhold_attest ? " withhold_attest" : "")
          << (org_behavior.replay_stale_checkpoint ? " replay_stale" : "")
          << (org_behavior.corrupt_delta ? " corrupt_delta" : "");
      break;
    case FaultKind::kOrgByzantineOff:
      out << " org=" << target;
      break;
    case FaultKind::kClientByzantineOn:
      out << " client=" << target
          << (client_behavior.no_commit ? " no_commit" : "")
          << (client_behavior.tamper_writeset ? " tamper_writeset" : "")
          << (client_behavior.partial_commit ? " partial_commit" : "")
          << (client_behavior.inconsistent_clocks ? " inconsistent_clocks" : "")
          << (client_behavior.frozen_clock ? " frozen_clock" : "");
      break;
    case FaultKind::kClientByzantineOff:
    case FaultKind::kClientPause:
    case FaultKind::kClientResume:
      out << " client=" << target;
      break;
    case FaultKind::kOverloadBurst:
      out << " org=" << target << " txs=" << burst_txs
          << " window=" << sim::ToMs(burst_window) << "ms";
      break;
    default:
      break;
  }
  return out.str();
}

std::string Scenario::Describe() const {
  std::ostringstream out;
  out << "scenario seed=" << seed << " orgs=" << num_orgs
      << " clients=" << num_clients << " policy=" << policy.ToString()
      << " f_budget=" << byzantine_budget << " txs=" << tx_count
      << " duration=" << sim::ToSec(duration) << "s"
      << " quiesce=" << sim::ToSec(quiesce) << "s"
      << (checkpoints ? " [checkpoints+attest]" : "")
      << (liveness_checkable ? " [liveness-checked]" : "") << "\n";
  if (events.empty()) {
    out << "  (no fault events)\n";
  }
  for (const FaultEvent& event : events) {
    out << "  " << event.Describe() << "\n";
  }
  return out.str();
}

namespace {

void SortEvents(std::vector<FaultEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

/// Is the script free of disruptions that can defeat bounded client retry?
bool ComputeLivenessCheckable(const std::vector<FaultEvent>& events) {
  for (const FaultEvent& event : events) {
    switch (event.kind) {
      case FaultKind::kOrgByzantineOn:
      case FaultKind::kOrgByzantineOff:
      case FaultKind::kClientByzantineOn:
      case FaultKind::kClientByzantineOff:
      case FaultKind::kClientPause:
      case FaultKind::kClientResume:
        break;  // Theorem 8.1 liveness covers Byzantine behaviour + churn
      default:
        return false;
    }
  }
  return true;
}

core::ByzantineOrgBehavior RandomOrgBehavior(Rng& rng) {
  core::ByzantineOrgBehavior behavior;
  behavior.active = true;
  behavior.ignore_proposal_prob = 0.25 * rng.NextBelow(4);
  behavior.wrong_endorse_prob = 0.25 * rng.NextBelow(4);
  behavior.ignore_commit_prob = 0.25 * rng.NextBelow(4);
  behavior.suppress_gossip = rng.NextBool(0.5);
  return behavior;
}

core::ByzantineClientBehavior RandomClientBehavior(Rng& rng) {
  core::ByzantineClientBehavior behavior;
  behavior.active = true;
  switch (rng.NextBelow(5)) {
    case 0: behavior.no_commit = true; break;
    case 1: behavior.tamper_writeset = true; break;
    case 2: behavior.partial_commit = true; break;
    case 3: behavior.inconsistent_clocks = true; break;
    default: behavior.frozen_clock = true; break;
  }
  return behavior;
}

}  // namespace

Scenario GenerateScenario(std::uint64_t seed, const ScenarioLimits& limits) {
  // Decorrelate from the runner's network/workload streams, which fork from
  // the raw seed.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Scenario scenario;
  scenario.seed = seed;
  scenario.duration = limits.duration;
  scenario.quiesce = limits.quiesce;
  scenario.tx_count = limits.tx_count;
  scenario.num_clients = limits.num_clients;
  scenario.num_orgs = static_cast<std::uint32_t>(
      limits.min_orgs + rng.NextBelow(limits.max_orgs - limits.min_orgs + 1));
  const std::uint32_t n = scenario.num_orgs;

  // Pick q, then a Byzantine budget the policy tolerates: q >= f+1, n-q >= f.
  const std::uint32_t q = 2 + static_cast<std::uint32_t>(rng.NextBelow(n / 2));
  scenario.policy = core::EndorsementPolicy{q, n};
  const std::uint32_t f_max = std::min(q - 1, n - q);
  scenario.byzantine_budget =
      limits.allow_byzantine_orgs && f_max > 0
          ? static_cast<std::uint32_t>(rng.NextBelow(f_max + 1))
          : 0;

  const sim::SimTime dur = scenario.duration;
  const auto time_in = [&rng](sim::SimTime lo, sim::SimTime hi) {
    return lo + rng.NextBelow(hi - lo);
  };

  // Byzantine organization phases: up to `f budget` distinct organizations.
  if (scenario.byzantine_budget > 0) {
    const auto byz_orgs = rng.SampleDistinct(n, scenario.byzantine_budget);
    for (std::size_t org : byz_orgs) {
      FaultEvent on;
      on.kind = FaultKind::kOrgByzantineOn;
      on.target = static_cast<std::uint32_t>(org);
      on.at = time_in(0, dur * 3 / 4);
      on.org_behavior = RandomOrgBehavior(rng);
      scenario.events.push_back(on);
      if (rng.NextBool(0.5)) {
        FaultEvent off;
        off.kind = FaultKind::kOrgByzantineOff;
        off.target = on.target;
        off.at = time_in(on.at + 1, dur + 1);
        scenario.events.push_back(off);
      }
      // else: stays Byzantine through quiescence; the invariant checker
      // excludes it from the convergence set.
    }
  }

  // Byzantine client phases.
  if (limits.allow_byzantine_clients && scenario.num_clients >= 3 &&
      rng.NextBool(0.6)) {
    const std::size_t count = 1 + rng.NextBelow(scenario.num_clients / 3);
    for (std::size_t client : rng.SampleDistinct(scenario.num_clients, count)) {
      FaultEvent on;
      on.kind = FaultKind::kClientByzantineOn;
      on.target = static_cast<std::uint32_t>(client);
      on.at = time_in(0, dur / 2);
      on.client_behavior = RandomClientBehavior(rng);
      scenario.events.push_back(on);
      if (rng.NextBool(0.5)) {
        FaultEvent off;
        off.kind = FaultKind::kClientByzantineOff;
        off.target = on.target;
        off.at = time_in(on.at + 1, dur + 1);
        scenario.events.push_back(off);
      }
    }
  }

  // Partition windows: sequential split → heal, every window healed before
  // the quiescence phase begins.
  if (limits.allow_partitions && n >= 2) {
    sim::SimTime cursor = dur / 8;
    const std::uint32_t windows = static_cast<std::uint32_t>(
        rng.NextBelow(limits.max_partition_windows + 1));
    for (std::uint32_t w = 0; w < windows && cursor + sim::Ms(500) < dur; ++w) {
      FaultEvent split;
      split.kind = FaultKind::kPartitionSplit;
      split.at = time_in(cursor, dur - sim::Ms(400));
      // Two-sided split over orgs and clients; both sides keep >= 1 org.
      split.groups.assign(n + scenario.num_clients, 0);
      const std::size_t side_b = 1 + rng.NextBelow(n - 1);
      for (std::size_t org : rng.SampleDistinct(n, side_b)) {
        split.groups[org] = 1;
      }
      for (std::uint32_t c = 0; c < scenario.num_clients; ++c) {
        split.groups[n + c] = rng.NextBool(0.5) ? 1 : 0;
      }
      FaultEvent heal;
      heal.kind = FaultKind::kPartitionHeal;
      heal.at = time_in(split.at + sim::Ms(300), dur + 1);
      cursor = heal.at + sim::Ms(100);
      scenario.events.push_back(split);
      scenario.events.push_back(heal);
    }
  }

  // Crash-and-restart windows: at most one organization down at a time, and
  // every crashed organization restarts before quiescence.
  if (limits.allow_crashes) {
    sim::SimTime cursor = dur / 8;
    const std::uint32_t windows = static_cast<std::uint32_t>(
        rng.NextBelow(limits.max_crash_windows + 1));
    for (std::uint32_t w = 0; w < windows && cursor + sim::Ms(500) < dur; ++w) {
      FaultEvent crash;
      crash.kind = FaultKind::kOrgCrash;
      crash.target = static_cast<std::uint32_t>(rng.NextBelow(n));
      crash.at = time_in(cursor, dur - sim::Ms(400));
      FaultEvent restart;
      restart.kind = FaultKind::kOrgRestart;
      restart.target = crash.target;
      restart.at = time_in(crash.at + sim::Ms(300), dur + 1);
      cursor = restart.at + sim::Ms(100);
      scenario.events.push_back(crash);
      scenario.events.push_back(restart);
    }
  }

  // Global link-fault windows (bounded rates so retries can still make
  // progress), plus an optional severely-degraded org pair.
  const std::uint32_t windows = static_cast<std::uint32_t>(
      rng.NextBelow(limits.max_link_fault_windows + 1));
  sim::SimTime cursor = 0;
  for (std::uint32_t w = 0; w < windows && cursor + sim::Ms(500) < dur; ++w) {
    FaultEvent set;
    set.kind = FaultKind::kLinkFaults;
    set.at = time_in(cursor, dur - sim::Ms(400));
    set.drop = 0.05 * rng.NextBelow(6);       // up to 0.25
    set.duplicate = 0.1 * rng.NextBelow(4);   // up to 0.3
    set.corrupt = 0.02 * rng.NextBelow(6);    // up to 0.1
    FaultEvent clear;
    clear.kind = FaultKind::kLinkFaultsClear;
    clear.at = time_in(set.at + sim::Ms(200), dur + 1);
    cursor = clear.at + sim::Ms(100);
    scenario.events.push_back(set);
    scenario.events.push_back(clear);
  }
  if (n >= 2 && rng.NextBool(0.4)) {
    FaultEvent pair;
    pair.kind = FaultKind::kLinkFaultPair;
    const auto picked = rng.SampleDistinct(n, 2);
    pair.target = static_cast<std::uint32_t>(picked[0]);
    pair.peer = static_cast<std::uint32_t>(picked[1]);
    pair.at = time_in(0, dur / 2);
    pair.drop = 0.5 + 0.1 * rng.NextBelow(5);  // 0.5 .. 0.9
    FaultEvent clear;
    clear.kind = FaultKind::kLinkFaultPairClear;
    clear.target = pair.target;
    clear.peer = pair.peer;
    clear.at = time_in(pair.at + sim::Ms(200), dur + 1);
    scenario.events.push_back(pair);
    scenario.events.push_back(clear);
  }

  // Client churn: pause/resume windows.
  if (limits.allow_client_churn && rng.NextBool(0.5)) {
    const std::size_t count = 1 + rng.NextBelow(std::max<std::uint32_t>(
                                      1, scenario.num_clients / 3));
    for (std::size_t client : rng.SampleDistinct(scenario.num_clients, count)) {
      FaultEvent pause;
      pause.kind = FaultKind::kClientPause;
      pause.target = static_cast<std::uint32_t>(client);
      pause.at = time_in(0, dur * 3 / 4);
      FaultEvent resume;
      resume.kind = FaultKind::kClientResume;
      resume.target = pause.target;
      resume.at = time_in(pause.at + 1, dur + 1);
      scenario.events.push_back(pause);
      scenario.events.push_back(resume);
    }
  }

  // Overload bursts: flood one organization with synthetic proposals so its
  // admission control must shed. New draws live at the END of generation so
  // every earlier derivation matches what older seeds produced.
  if (limits.allow_overload_bursts && limits.max_overload_bursts > 0 &&
      rng.NextBool(0.4)) {
    const std::uint32_t bursts =
        1 + static_cast<std::uint32_t>(
                rng.NextBelow(limits.max_overload_bursts));
    for (std::uint32_t b = 0; b < bursts; ++b) {
      FaultEvent burst;
      burst.kind = FaultKind::kOverloadBurst;
      burst.target = static_cast<std::uint32_t>(rng.NextBelow(n));
      burst.at = time_in(0, dur * 3 / 4);
      burst.burst_txs = 60 + 30 * static_cast<std::uint32_t>(rng.NextBelow(4));
      burst.burst_window = sim::Ms(200 + 100 * rng.NextBelow(4));
      scenario.events.push_back(burst);
    }
  }

  // Byzantine scenarios run with checkpoints + quorum attestation enabled:
  // q-of-n install trust keeps snapshot transport safe at the generator's
  // budget (f <= min(q-1, n-q)), so the checkpoint layer gets adversarial
  // coverage instead of being switched off. Each Byzantine organization
  // also draws a checkpoint-layer attack. New draws live at the END of
  // generation so every earlier derivation matches what older seeds
  // produced.
  if (scenario.byzantine_budget > 0) {
    scenario.checkpoints = true;
    for (FaultEvent& event : scenario.events) {
      if (event.kind != FaultKind::kOrgByzantineOn) continue;
      core::ByzantineOrgBehavior& b = event.org_behavior;
      switch (rng.NextBelow(6)) {
        case 0: b.forge_checkpoint = true; break;
        case 1: b.equivocate_checkpoint = true; break;
        case 2: b.dishonest_attest = true; break;
        case 3: b.withhold_attest = true; break;
        case 4: b.replay_stale_checkpoint = true; break;
        default: b.corrupt_delta = true; break;
      }
    }
  }

  SortEvents(scenario.events);
  scenario.liveness_checkable = ComputeLivenessCheckable(scenario.events);
  return scenario;
}

Scenario MakeUnsafeScenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.seed = seed;
  scenario.num_orgs = 4;
  scenario.num_clients = 4;
  scenario.policy = core::EndorsementPolicy{1, 4};  // q=1 < f+1=2: unsafe
  scenario.byzantine_budget = 1;
  scenario.duration = sim::Sec(8);
  scenario.quiesce = sim::Sec(20);
  scenario.tx_count = 32;
  scenario.liveness_checkable = false;

  FaultEvent byz;
  byz.kind = FaultKind::kOrgByzantineOn;
  byz.target = 0;
  byz.at = sim::Ms(1);
  byz.org_behavior.active = true;
  byz.org_behavior.ignore_proposal_prob = 0.0;
  byz.org_behavior.wrong_endorse_prob = 1.0;  // always endorse incorrectly
  byz.org_behavior.ignore_commit_prob = 0.0;
  byz.org_behavior.suppress_gossip = false;
  scenario.events.push_back(byz);
  // A decoy disruption the minimizer should strip away.
  FaultEvent decoy;
  decoy.kind = FaultKind::kLinkFaults;
  decoy.at = sim::Sec(2);
  decoy.duplicate = 0.2;
  scenario.events.push_back(decoy);
  FaultEvent decoy_clear;
  decoy_clear.kind = FaultKind::kLinkFaultsClear;
  decoy_clear.at = sim::Sec(4);
  scenario.events.push_back(decoy_clear);
  return scenario;
}

Scenario MakeLongPartitionScenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.seed = seed;
  scenario.num_orgs = 5;
  scenario.num_clients = 6;
  scenario.policy = core::EndorsementPolicy{2, 5};
  scenario.duration = sim::Sec(12);
  scenario.quiesce = sim::Sec(25);
  scenario.tx_count = 96;
  scenario.checkpoints = true;
  // The isolated org cannot endorse during the partition, so some proposals
  // legitimately exhaust their retries — liveness is not checkable here.
  scenario.liveness_checkable = false;

  // Org 4 alone on the minority side for most of the run; every client stays
  // with the majority so the full workload commits there and the healed org
  // has the maximum history to catch up on.
  FaultEvent split;
  split.kind = FaultKind::kPartitionSplit;
  split.at = sim::Sec(1);
  split.groups.assign(scenario.num_orgs + scenario.num_clients, 0);
  split.groups[4] = 1;
  scenario.events.push_back(split);
  FaultEvent heal;
  heal.kind = FaultKind::kPartitionHeal;
  heal.at = sim::Ms(10500);
  scenario.events.push_back(heal);
  return scenario;
}

Scenario MakeCrashRestartScenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.seed = seed;
  scenario.num_orgs = 4;
  scenario.num_clients = 5;
  scenario.policy = core::EndorsementPolicy{2, 4};
  scenario.duration = sim::Sec(12);
  scenario.quiesce = sim::Sec(25);
  scenario.tx_count = 96;
  scenario.checkpoints = true;
  scenario.liveness_checkable = false;

  // Org 3 is down through the bulk of the submission window and restarts
  // while clients are still committing — recovery from its (pruned) ledger
  // plus checkpoint catch-up happen under load.
  FaultEvent crash;
  crash.kind = FaultKind::kOrgCrash;
  crash.target = 3;
  crash.at = sim::Ms(1200);
  scenario.events.push_back(crash);
  FaultEvent restart;
  restart.kind = FaultKind::kOrgRestart;
  restart.target = 3;
  restart.at = sim::Sec(9);
  scenario.events.push_back(restart);
  return scenario;
}

Scenario MakeByzantineCatchupScenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.seed = seed;
  scenario.num_orgs = 6;
  scenario.num_clients = 6;
  scenario.policy = core::EndorsementPolicy{3, 6};
  scenario.byzantine_budget = 2;  // f = n-q = q-1 = 2: both bounds tight
  scenario.duration = sim::Sec(12);
  scenario.quiesce = sim::Sec(25);
  scenario.tx_count = 96;
  scenario.checkpoints = true;
  // The lagging org cannot endorse during the partition, so some proposals
  // legitimately exhaust their retries — liveness is not checkable here.
  scenario.liveness_checkable = false;

  // Orgs 2 and 3 attack the checkpoint layer for the whole run (they still
  // endorse and commit honestly — probabilities 0 — so the endorsement-side
  // safety bound is not what is under test here). Org 2 forges and
  // equivocates its own digests and blind-attests anything it hears; org 3
  // withholds attestations, replays the first quorum-backed checkpoint it
  // saw forever, and corrupts its sync deltas.
  FaultEvent forger;
  forger.kind = FaultKind::kOrgByzantineOn;
  forger.target = 2;
  forger.at = sim::Ms(1);
  forger.org_behavior.active = true;
  forger.org_behavior.ignore_proposal_prob = 0.0;
  forger.org_behavior.wrong_endorse_prob = 0.0;
  forger.org_behavior.ignore_commit_prob = 0.0;
  forger.org_behavior.suppress_gossip = false;
  forger.org_behavior.forge_checkpoint = true;
  forger.org_behavior.equivocate_checkpoint = true;
  forger.org_behavior.dishonest_attest = true;
  scenario.events.push_back(forger);
  FaultEvent withholder;
  withholder.kind = FaultKind::kOrgByzantineOn;
  withholder.target = 3;
  withholder.at = sim::Ms(1);
  withholder.org_behavior.active = true;
  withholder.org_behavior.ignore_proposal_prob = 0.0;
  withholder.org_behavior.wrong_endorse_prob = 0.0;
  withholder.org_behavior.ignore_commit_prob = 0.0;
  withholder.org_behavior.suppress_gossip = false;
  withholder.org_behavior.withhold_attest = true;
  withholder.org_behavior.replay_stale_checkpoint = true;
  withholder.org_behavior.corrupt_delta = true;
  scenario.events.push_back(withholder);

  // Honest org 5 alone on the minority side for most of the run; every
  // client stays with the majority (3 honest orgs = exactly q) so the full
  // workload commits there, and the healed org must catch up through a
  // checkpoint the honest quorum attested — while both adversaries feed it
  // forgeries, stale replays and corrupted deltas.
  FaultEvent split;
  split.kind = FaultKind::kPartitionSplit;
  split.at = sim::Sec(1);
  split.groups.assign(scenario.num_orgs + scenario.num_clients, 0);
  split.groups[5] = 1;
  scenario.events.push_back(split);
  FaultEvent heal;
  heal.kind = FaultKind::kPartitionHeal;
  heal.at = sim::Ms(10500);
  scenario.events.push_back(heal);
  return scenario;
}

}  // namespace orderless::chaos
